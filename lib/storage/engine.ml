(* Simulated transactional storage engine (the InnoDB/MyRocks stand-in).

   Models exactly the surface MyRaft's commit path touches:
   - [prepare] writes prepare markers (2PC with the binlog): the
     transaction's effects are staged but not visible;
   - [commit_prepared] durably applies a prepared transaction and records
     its GTID and OpId (the engine is the recovery source of truth for
     "last transaction committed in engine", §3.3 demotion step 5);
   - [rollback_prepared] discards a prepared transaction online (demotion
     step 1, and crash recovery cases 1-3 of §A.2);
   - [crash_recover] is what restart does: every prepared-but-uncommitted
     transaction is rolled back, committed data survives.

   Row-level locks are modelled as per-key ownership so that conflicting
   writes queue behind the prepared transaction holding the lock, which
   is what makes group-commit stalls visible in latency. *)

(* String and GTID keys hash with [Hashtbl.hash], the generic tables'
   function, so every table iterates in the generic order: checkpoint
   bytes depend on it. *)
module Keys = Hashtbl.Make (struct
  type t = string

  let equal = String.equal

  let hash = Hashtbl.hash
end)

module By_gtid = Hashtbl.Make (struct
  type t = Binlog.Gtid.t

  let equal = Binlog.Gtid.equal

  let hash = Hashtbl.hash
end)

(* One row slot per key, mutated in place: the value, the last writer
   and the lock holder.  Its [value] is one of the two sentinels below
   (compared with [==]) while it holds no row:
   - [parked]: the key is locked but absent, and the slot sits in its
     table's [parked_rows], invisible to every read;
   - [dead]: the slot is in no map (its row was deleted, or its parked
     lock was released).
   Otherwise the slot is in its table's [rows].  [last_writer] is
   [nobody] for a row restored from a checkpoint that recorded none,
   and [holder] is [nobody] while the row is unlocked; neither owns an
   option box. *)
type slot = {
  mutable value : string;
  mutable last_writer : Binlog.Gtid.t;
  mutable holder : Binlog.Gtid.t;
}

let parked = String.make 1 'p'

let dead = String.make 1 'd'

let nobody = Binlog.Gtid.make ~source:"" ~gno:1

type table = {
  rows : slot Keys.t; (* live rows only *)
  parked_rows : slot Keys.t; (* keys locked while absent *)
}

(* A prepared transaction: its table and row ops and, per op, the slot
   it locked (a key written twice appears twice).  The handle is what
   commit and rollback work through.  Once committed or rolled back its
   [slots] are [finished] (compared with [==]), so a handle needs no
   liveness flag beside them. *)
type prepared = {
  gtid : Binlog.Gtid.t;
  table : string;
  ops : Binlog.Event.row_op list;
  mutable slots : slot array;
}

exception Lock_conflict of { table : string; key : string; holder : Binlog.Gtid.t }

type t = {
  (* Tables a commit has touched, each added at the first such commit;
     [staged] holds tables only prepares have touched so far, so an
     aborted prepare leaves no empty table in a checkpoint. *)
  tables : table Keys.t;
  staged : table Keys.t;
  (* Prepared transactions by GTID: only for the duplicate check, the
     applier's in-flight check, and rolling back by GTID. *)
  prepared : prepared By_gtid.t;
  gtid_executed : Binlog.Gtid_set.Acc.t; (* engine-durable *)
  mutable last_committed_opid : Binlog.Opid.t;
  mutable committed_count : int;
  (* Cumulative digest chain: slot i-1 holds the digest of the first i
     commits, in commit order, as an unsigned 32-bit int (an unboxed
     column; [checksum_at] hands out the [int32]).  Lets consistency
     checks compare a lagging replica's whole history against the
     same-length prefix of a reference replica (§5.1 checksum
     comparisons). *)
  commit_digests : int Vec.t;
  (* Commit order as two columns, GTID and OpId: no tuple per commit. *)
  commit_gtids : Binlog.Gtid.t Vec.t;
  commit_opids : Binlog.Opid.t Vec.t;
  mutable commit_listeners : (Binlog.Gtid.t -> Binlog.Opid.t -> unit) list;
  (* fired (in subscription order) after each commit_prepared has fully
     applied: gtid_executed and last_committed_opid already reflect the
     transaction when a listener runs *)
}

let create () =
  {
    tables = Keys.create 8;
    staged = Keys.create 8;
    prepared = By_gtid.create 64;
    gtid_executed = Binlog.Gtid_set.Acc.create ();
    last_committed_opid = Binlog.Opid.zero;
    committed_count = 0;
    commit_digests = Vec.create ~dummy:0;
    commit_gtids = Vec.create ~dummy:(Binlog.Gtid.make ~source:"none" ~gno:1);
    commit_opids = Vec.create ~dummy:Binlog.Opid.zero;
    commit_listeners = [];
  }

let subscribe_commit t f = t.commit_listeners <- t.commit_listeners @ [ f ]

let new_table () = { rows = Keys.create 64; parked_rows = Keys.create 8 }

(* A listed or staged table; [Not_found] if no prepare touched it. *)
let find_table t name =
  match Keys.find t.tables name with
  | tbl -> tbl
  | exception Not_found -> Keys.find t.staged name

(* The table a prepare locks rows in: listed, staged, or a new staged
   one. *)
let table_for_prepare t name =
  match find_table t name with
  | tbl -> tbl
  | exception Not_found ->
    let tbl = new_table () in
    Keys.add t.staged name tbl;
    tbl

(* The table a commit writes into; the first commit lists it. *)
let table_for_commit t name =
  match Keys.find t.tables name with
  | tbl -> tbl
  | exception Not_found ->
    let tbl =
      match Keys.find t.staged name with
      | tbl ->
        Keys.remove t.staged name;
        tbl
      | exception Not_found -> new_table ()
    in
    Keys.add t.tables name tbl;
    tbl

let dummy_slot = { value = dead; last_writer = nobody; holder = nobody }

let finished = [| dummy_slot |]

(* The slot for [key]: its row, its parked lock, or a new parked one.
   A present key costs one probe. *)
let find_slot tbl key =
  match Keys.find tbl.rows key with
  | slot -> slot
  | exception Not_found -> (
    match Keys.find tbl.parked_rows key with
    | slot -> slot
    | exception Not_found ->
      let slot = { value = parked; last_writer = nobody; holder = nobody } in
      Keys.add tbl.parked_rows key slot;
      slot)

(* Each walk over a transaction's writes below is one top-level
   recursion over its ops, with [i] the op's position. *)

(* Unlock the slots of ops [i ..] (the first [n] of them), once each
   (a key written twice holds one slot twice).  A parked lock leaves
   its table and the slot dies. *)
let rec release t p ops i n =
  if i < n then
    match ops with
    | [] -> ()
    | op :: more ->
      let slot = p.slots.(i) in
      if slot.holder != nobody then begin
        slot.holder <- nobody;
        if slot.value == parked then begin
          Keys.remove (find_table t p.table).parked_rows (Binlog.Event.row_op_key op);
          slot.value <- dead
        end
      end;
      release t p more (i + 1) n

(* Find, check and take each op's lock in [tbl] in one pass.  On a
   conflict the locks already taken are released and nothing stays
   changed. *)
let rec lock_rows t p tbl ops i =
  match ops with
  | [] -> ()
  | op :: more ->
    let key = Binlog.Event.row_op_key op in
    let slot = find_slot tbl key in
    let holder = slot.holder in
    if holder != nobody && not (Binlog.Gtid.equal holder p.gtid) then begin
      release t p p.ops 0 i;
      raise (Lock_conflict { table = p.table; key; holder })
    end;
    slot.holder <- p.gtid;
    p.slots.(i) <- slot;
    lock_rows t p tbl more (i + 1)

(* Stage a transaction.  Raises [Lock_conflict] if another prepared
   transaction holds a lock on any touched key. *)
let prepare t ~gtid ~table ~ops =
  if By_gtid.mem t.prepared gtid then invalid_arg "Engine.prepare: duplicate gtid";
  let p = { gtid; table; ops; slots = Array.make (List.length ops) dummy_slot } in
  (match ops with [] -> () | _ -> lock_rows t p (table_for_prepare t table) ops 0);
  By_gtid.add t.prepared gtid p;
  p

let live p = p.slots != finished

let unprepared =
  { gtid = Binlog.Gtid.make ~source:"" ~gno:1; table = ""; ops = []; slots = finished }

let is_prepared t gtid = By_gtid.mem t.prepared gtid

let prepared_gtids t = By_gtid.fold (fun g _ acc -> g :: acc) t.prepared []

(* Fold one commit's identity into the digest chain: previous digest,
   GTID, OpId, then each write's table/op-tag/fields.  Streaming the
   fields through the CRC allocates nothing; the old form marshalled the
   triple into a throwaway string and concatenated it on every commit on
   every node.  The digest is deterministic across replicas because the
   folded fields are exactly the replicated transaction identity. *)
let rec digest_writes st tbl = function
  | [] -> st
  | op :: more ->
    let open Binlog.Checksum in
    let st = feed_string st tbl in
    let st =
      match op with
      | Binlog.Event.Insert { key; value } ->
        feed_string (feed_string (feed_int st 1) key) value
      | Binlog.Event.Update { key; before; after } ->
        feed_string (feed_string (feed_string (feed_int st 2) key) before) after
      | Binlog.Event.Delete { key; before } ->
        feed_string (feed_string (feed_int st 3) key) before
    in
    digest_writes st tbl more

let commit_digest ~prev ~gtid ~opid p =
  let open Binlog.Checksum in
  let st = feed_int init prev in
  let st = feed_string st (Binlog.Gtid.source gtid) in
  let st = feed_int st (Binlog.Gtid.gno gtid) in
  let st = feed_int st (Binlog.Opid.term opid) in
  let st = feed_int st (Binlog.Opid.index opid) in
  finalize_int (digest_writes st p.table p.ops)

(* Apply each op through its slot.  Only a row that appears or
   disappears touches a table. *)
let rec apply_writes t p ops i =
  match ops with
  | [] -> ()
  | op :: more ->
    let slot = p.slots.(i) in
    (match op with
    | Binlog.Event.Insert { key; value } | Update { key; after = value; _ } ->
      if slot.value == parked || slot.value == dead then begin
        let tbl = table_for_commit t p.table in
        if slot.value == parked then Keys.remove tbl.parked_rows key;
        Keys.add tbl.rows key slot
      end;
      slot.value <- value;
      slot.last_writer <- p.gtid
    | Delete { key; _ } ->
      let tbl = table_for_commit t p.table in
      if slot.value != parked && slot.value != dead then begin
        Keys.remove tbl.rows key;
        slot.value <- dead
      end);
    apply_writes t p more (i + 1)

let rec notify listeners gtid opid =
  match listeners with
  | [] -> ()
  | f :: rest ->
    f gtid opid;
    notify rest gtid opid

let finish t p =
  By_gtid.remove t.prepared p.gtid;
  release t p p.ops 0 (Array.length p.slots);
  p.slots <- finished

(* Durably commit a prepared transaction, stamping the Raft OpId. *)
let commit_prepared t p ~opid =
  if not (live p) then
    invalid_arg ("Engine.commit_prepared: not prepared: " ^ Binlog.Gtid.to_string p.gtid);
  let gtid = p.gtid in
  apply_writes t p p.ops 0;
  finish t p;
  Binlog.Gtid_set.Acc.add t.gtid_executed gtid;
  if Binlog.Opid.compare opid t.last_committed_opid > 0 then t.last_committed_opid <- opid;
  t.committed_count <- t.committed_count + 1;
  let n = Vec.length t.commit_digests in
  let prev = if n = 0 then 0 else Vec.get t.commit_digests (n - 1) in
  Vec.push t.commit_digests (commit_digest ~prev ~gtid ~opid p);
  Vec.push t.commit_gtids gtid;
  Vec.push t.commit_opids opid;
  notify t.commit_listeners gtid opid

let rollback_prepared t p = if live p then finish t p

let rollback_gtid t gtid =
  match By_gtid.find t.prepared gtid with
  | p -> finish t p
  | exception Not_found -> ()

(* Restart semantics: prepared transactions are rolled back; committed
   state, gtid_executed, and last_committed_opid survive (they live in
   the engine's WAL). *)
let crash_recover t =
  let pending = prepared_gtids t in
  List.iter (rollback_gtid t) pending;
  List.length pending

let get t ~table:tbl_name ~key =
  match Keys.find t.tables tbl_name with
  | exception Not_found -> None
  | tbl -> (
    match Keys.find tbl.rows key with
    | slot -> Some slot.value
    | exception Not_found -> None)

let gtid_executed t = Binlog.Gtid_set.Acc.get t.gtid_executed

let has_committed t gtid = Binlog.Gtid_set.Acc.contains t.gtid_executed gtid

let last_committed_opid t = t.last_committed_opid

let committed_count t = t.committed_count

let row_count t ~table:tbl_name =
  match Keys.find t.tables tbl_name with
  | tbl -> Keys.length tbl.rows
  | exception Not_found -> 0

(* Content digest used by the shadow-testing checksum comparisons between
   leader and followers (§5.1): a CRC over the sorted (table, key, value)
   rows, each string length-prefixed.  It reads only the rows' bytes, so
   two engines holding equal rows agree however their strings are shared
   in the heap. *)
let checksum t =
  let rows = ref [] in
  Keys.iter
    (fun tbl_name tbl ->
      Keys.iter (fun key slot -> rows := (tbl_name, key, slot.value) :: !rows) tbl.rows)
    t.tables;
  let feed st s = Binlog.Checksum.(feed_string (feed_int st (String.length s)) s) in
  Binlog.Checksum.finalize
    (List.fold_left
       (fun st (tbl_name, key, value) -> feed (feed (feed st tbl_name) key) value)
       Binlog.Checksum.init (List.sort compare !rows))

(* Digest of the first [count] commits (in commit order); [0l] for an
   empty prefix.  Two replicas agree on every shared prefix iff they
   committed the same transactions in the same order. *)
let checksum_at t ~count =
  if count < 0 || count > t.committed_count then
    invalid_arg
      (Printf.sprintf "Engine.checksum_at: count %d outside [0, %d]" count t.committed_count);
  if count = 0 then 0l else Int32.of_int (Vec.get t.commit_digests (count - 1))

(* The [n]th committed transaction (0-based, commit order). *)
let nth_commit t n =
  if n < 0 || n >= Vec.length t.commit_gtids then None
  else Some (Vec.get t.commit_gtids n, Vec.get t.commit_opids n)

(* ----- engine-checkpoint snapshots (log compaction / InstallSnapshot) ----- *)

(* Everything a snapshot must carry to reseat a follower's engine:
   committed table content, the executed-GTID set, the recovery cursor,
   and the cumulative commit-digest chain — without the chain a restored
   replica could no longer prove history convergence against its peers
   (the §5.1 prefix-checksum comparisons). *)
type checkpoint = {
  ck_rows : (string * (string * string * Binlog.Gtid.t option) list) list;
  ck_gtid_executed : Binlog.Gtid_set.t;
  ck_last_committed_opid : Binlog.Opid.t;
  ck_committed_count : int;
  ck_digests : int32 list;
  ck_commit_log : (Binlog.Gtid.t * Binlog.Opid.t) list;
}

let checkpoint t =
  let rows =
    Keys.fold
      (fun tbl_name tbl acc ->
        let rows =
          Keys.fold
            (fun key slot acc ->
              let last_writer =
                if slot.last_writer == nobody then None else Some slot.last_writer
              in
              (key, slot.value, last_writer) :: acc)
            tbl.rows []
        in
        (tbl_name, rows) :: acc)
      t.tables []
  in
  {
    ck_rows = rows;
    ck_gtid_executed = gtid_executed t;
    ck_last_committed_opid = t.last_committed_opid;
    ck_committed_count = t.committed_count;
    ck_digests = List.map Int32.of_int (Vec.to_list t.commit_digests);
    ck_commit_log = List.combine (Vec.to_list t.commit_gtids) (Vec.to_list t.commit_opids);
  }

(* Reseat the engine from a checkpoint.  Prepared-but-uncommitted
   transactions don't survive (same as crash recovery); commit listeners
   do — they belong to the server wiring, not the replicated state. *)
let restore t ck =
  ignore (crash_recover t);
  Keys.reset t.tables;
  Keys.reset t.staged;
  List.iter
    (fun (tbl_name, rows) ->
      let tbl = table_for_commit t tbl_name in
      List.iter
        (fun (key, value, last_writer) ->
          let last_writer = Option.value last_writer ~default:nobody in
          Keys.replace tbl.rows key { value; last_writer; holder = nobody })
        rows)
    ck.ck_rows;
  Binlog.Gtid_set.Acc.set t.gtid_executed ck.ck_gtid_executed;
  t.last_committed_opid <- ck.ck_last_committed_opid;
  t.committed_count <- ck.ck_committed_count;
  ignore (Vec.truncate_to t.commit_digests 0);
  List.iter
    (fun d -> Vec.push t.commit_digests (Int32.to_int d land 0xFFFFFFFF))
    ck.ck_digests;
  ignore (Vec.truncate_to t.commit_gtids 0);
  ignore (Vec.truncate_to t.commit_opids 0);
  List.iter
    (fun (gtid, opid) ->
      Vec.push t.commit_gtids gtid;
      Vec.push t.commit_opids opid)
    ck.ck_commit_log

(* [No_sharing]: the bytes follow the checkpoint's values alone, not how
   its strings happen to be shared in the heap, so a snapshot's size (and
   with it its chunk count and transfer time) is the same on every
   replica holding the same rows. *)
let encode_checkpoint ck = Marshal.to_string ck [ Marshal.No_sharing ]

let decode_checkpoint s : checkpoint = Marshal.from_string s 0
