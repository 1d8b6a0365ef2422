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

(* Table names and GTIDs hash with [Hashtbl.hash], the generic tables'
   function, so the table map iterates in the generic order: checkpoint
   bytes depend on it.  Row tables are {!Rows}, which iterates in the
   same order. *)
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
   and the lock holder.  The slot is also the cell of its bucket's chain
   in the {!Rows} table that holds it, so a row costs one block.  Its
   [value] is one of the two sentinels below (compared with [==]) while
   it holds no row:
   - [parked]: the key is locked but absent, and the slot sits in its
     table's [parked_rows], invisible to every read;
   - [dead]: the slot is in no table (its row was deleted, or its
     parked lock was released).
   Otherwise the slot is in its table's [rows].  [last_writer] is
   [nobody] for a row restored from a checkpoint that recorded none,
   and [holder] is [nobody] while the row is unlocked; neither owns an
   option box. *)
type slot = {
  key : string;
  mutable value : string;
  mutable last_writer : Binlog.Gtid.t;
  mutable holder : Binlog.Gtid.t;
  mutable next : slot; (* the next cell of its chain; [nil] ends it *)
}

let parked = String.make 1 'p'

let dead = String.make 1 'd'

let nobody = Binlog.Gtid.make ~source:"" ~gno:1

(* The end of every chain, and the filler of a handle's slot array. *)
let rec nil =
  { key = ""; value = dead; last_writer = nobody; holder = nobody; next = nil }

(* A table of slots chained through their [next] field that reproduces
   [Hashtbl.Make] over [Hashtbl.hash] exactly: the same bucket index and
   initial sizes, head insertion, and the same order-preserving
   doubling.  A fold therefore visits the rows in the order a [Keys]
   table holding the same (key, slot) bindings would, and checkpoint
   bytes stay what they were.  A slot is in at most one chain, and a
   key in at most one slot of a table. *)
module Rows = struct
  type t = { mutable size : int; mutable buckets : slot array }

  (* [Hashtbl.create n]'s bucket count: the least power of two at or
     above 16 and [n]. *)
  let create n =
    let rec above x = if x >= n then x else above (2 * x) in
    { size = 0; buckets = Array.make (above 16) nil }

  let index buckets key = Hashtbl.hash key land (Array.length buckets - 1)

  let rec find_in c key =
    if c == nil || String.equal c.key key then c else find_in c.next key

  (* The slot holding [key], or [nil]. *)
  let find t key = find_in t.buckets.(index t.buckets key) key

  (* Append [c] and the rest of its old chain to the tails of
     [buckets]' chains, in order. *)
  let rec move buckets tails c =
    if c != nil then begin
      let next = c.next in
      let i = index buckets c.key in
      let tail = tails.(i) in
      if tail == nil then buckets.(i) <- c else tail.next <- c;
      tails.(i) <- c;
      move buckets tails next
    end

  let resize t =
    let n = 2 * Array.length t.buckets in
    let buckets = Array.make n nil and tails = Array.make n nil in
    Array.iter (move buckets tails) t.buckets;
    Array.iter (fun tail -> if tail != nil then tail.next <- nil) tails;
    t.buckets <- buckets

  (* Put [slot], which is in no chain, at the head of its bucket. *)
  let add t slot =
    let i = index t.buckets slot.key in
    slot.next <- t.buckets.(i);
    t.buckets.(i) <- slot;
    t.size <- t.size + 1;
    if t.size > Array.length t.buckets lsl 1 then resize t

  let rec unlink t i prev c key =
    if c != nil then
      if String.equal c.key key then begin
        t.size <- t.size - 1;
        if prev == nil then t.buckets.(i) <- c.next else prev.next <- c.next;
        c.next <- nil
      end
      else unlink t i c c.next key

  let remove t key =
    let i = index t.buckets key in
    unlink t i nil t.buckets.(i) key

  let rec fold_chain f c acc = if c == nil then acc else fold_chain f c.next (f c acc)

  (* Bucket by bucket, each chain from its head: [Hashtbl.fold]'s order. *)
  let fold f t acc = Array.fold_left (fun acc c -> fold_chain f c acc) acc t.buckets
end

type table = {
  rows : Rows.t; (* live rows only *)
  parked_rows : Rows.t; (* keys locked while absent *)
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

(* The commit history, in commit order: the cumulative digest chain
   and each commit's GTID and OpId.

   Digest i (of the first i+1 commits) is an unsigned 32-bit value at
   byte [4 * (i land chunk_mask)] of chunk [i lsr chunk_bits], 16 KiB
   chunks written and read unboxed.  Chunk 0 starts at 64 bytes and
   doubles up to a whole chunk, so an engine that commits little holds
   a few words.

   GTIDs and OpIds are held as runs: a run from commit [first] holds
   [source:gno + k] at [term.(index + k)] for its commits [first + k].
   A commit extends the last run when it has the run's source and term
   and the next gno and index; a new primary, a new term or a gap (a
   no-op, config or rotate entry between two transactions, or an
   aborted write's gno) starts a new run.  [nth] builds the pair on
   demand. *)
module History = struct
  external get32 : Bytes.t -> int -> int32 = "%caml_bytes_get32"

  external set32 : Bytes.t -> int -> int32 -> unit = "%caml_bytes_set32"

  let chunk_bits = 12

  let chunk_mask = (1 lsl chunk_bits) - 1

  let chunk_bytes = 4 lsl chunk_bits

  type run = { first : int; source : string; term : int; gno : int; index : int }

  type t = { mutable length : int; chunks : Bytes.t Vec.t; runs : run Vec.t }

  let create () =
    {
      length = 0;
      chunks = Vec.create ~dummy:Bytes.empty;
      runs = Vec.create ~dummy:{ first = 0; source = ""; term = 0; gno = 0; index = 0 };
    }

  let digest32 h i =
    get32 (Vec.get h.chunks (i lsr chunk_bits)) ((i land chunk_mask) lsl 2)

  (* Digest [i] as an unsigned int.  It repeats [digest32]'s read: the
     [int32] a call returns is boxed, and every commit reads one. *)
  let digest h i =
    Int32.to_int (get32 (Vec.get h.chunks (i lsr chunk_bits)) ((i land chunk_mask) lsl 2))
    land 0xFFFF_FFFF

  let push h ~digest ~gtid ~opid =
    let i = h.length in
    let c = i lsr chunk_bits and off = (i land chunk_mask) lsl 2 in
    if c = Vec.length h.chunks then
      Vec.push h.chunks (Bytes.create (if c = 0 then 64 else chunk_bytes))
    else if off = Bytes.length (Vec.get h.chunks c) then
      Vec.set h.chunks c (Bytes.extend (Vec.get h.chunks c) 0 off);
    set32 (Vec.get h.chunks c) off (Int32.of_int digest);
    let source = Binlog.Gtid.source gtid and gno = Binlog.Gtid.gno gtid in
    let term = Binlog.Opid.term opid and index = Binlog.Opid.index opid in
    let n = Vec.length h.runs in
    let extends =
      n > 0
      &&
      let r = Vec.get h.runs (n - 1) in
      let k = i - r.first in
      r.term = term
      && r.gno + k = gno
      && r.index + k = index
      && String.equal r.source source
    in
    if not extends then Vec.push h.runs { first = i; source; term; gno; index };
    h.length <- i + 1

  (* The last run starting at or before commit [n], searched in runs
     [lo, hi]. *)
  let rec run_of h n lo hi =
    if lo = hi then Vec.get h.runs lo
    else
      let mid = (lo + hi + 1) / 2 in
      if (Vec.get h.runs mid).first <= n then run_of h n mid hi
      else run_of h n lo (mid - 1)

  let nth h n =
    let r = run_of h n 0 (Vec.length h.runs - 1) in
    let k = n - r.first in
    ( Binlog.Gtid.make ~source:r.source ~gno:(r.gno + k),
      Binlog.Opid.make ~term:r.term ~index:(r.index + k) )
end

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
  (* The digest chain and commit log: lets consistency checks compare a
     lagging replica's whole history against the same-length prefix of
     a reference replica (§5.1 checksum comparisons).  A restore
     replaces it. *)
  mutable history : History.t;
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
    history = History.create ();
    commit_listeners = [];
  }

let subscribe_commit t f = t.commit_listeners <- t.commit_listeners @ [ f ]

let new_table () = { rows = Rows.create 64; parked_rows = Rows.create 8 }

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

let finished = [| nil |]

(* The slot for [key]: its row, its parked lock, or a new parked one.
   A present key costs one probe. *)
let find_slot tbl key =
  let slot = Rows.find tbl.rows key in
  if slot != nil then slot
  else
    let slot = Rows.find tbl.parked_rows key in
    if slot != nil then slot
    else begin
      let slot =
        { key; value = parked; last_writer = nobody; holder = nobody; next = nil }
      in
      Rows.add tbl.parked_rows slot;
      slot
    end

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
          Rows.remove (find_table t p.table).parked_rows (Binlog.Event.row_op_key op);
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
  let p = { gtid; table; ops; slots = Array.make (List.length ops) nil } in
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
        if slot.value == parked then Rows.remove tbl.parked_rows key;
        Rows.add tbl.rows slot
      end;
      slot.value <- value;
      slot.last_writer <- p.gtid
    | Delete { key; _ } ->
      let tbl = table_for_commit t p.table in
      if slot.value != parked && slot.value != dead then begin
        Rows.remove tbl.rows key;
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
  let h = t.history in
  let prev = if h.length = 0 then 0 else History.digest h (h.length - 1) in
  History.push h ~digest:(commit_digest ~prev ~gtid ~opid p) ~gtid ~opid;
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
  | tbl ->
    let slot = Rows.find tbl.rows key in
    if slot == nil then None else Some slot.value

let gtid_executed t = Binlog.Gtid_set.Acc.get t.gtid_executed

let has_committed t gtid = Binlog.Gtid_set.Acc.contains t.gtid_executed gtid

let last_committed_opid t = t.last_committed_opid

let committed_count t = t.history.length

let row_count t ~table:tbl_name =
  match Keys.find t.tables tbl_name with
  | tbl -> tbl.rows.size
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
      rows :=
        Rows.fold
          (fun slot acc -> (tbl_name, slot.key, slot.value) :: acc)
          tbl.rows !rows)
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
  let n = committed_count t in
  if count < 0 || count > n then
    invalid_arg (Printf.sprintf "Engine.checksum_at: count %d outside [0, %d]" count n);
  if count = 0 then 0l else History.digest32 t.history (count - 1)

(* The [n]th committed transaction (0-based, commit order). *)
let nth_commit t n =
  if n < 0 || n >= committed_count t then None else Some (History.nth t.history n)

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
          Rows.fold
            (fun slot acc ->
              let last_writer =
                if slot.last_writer == nobody then None else Some slot.last_writer
              in
              (slot.key, slot.value, last_writer) :: acc)
            tbl.rows []
        in
        (tbl_name, rows) :: acc)
      t.tables []
  in
  let h = t.history in
  {
    ck_rows = rows;
    ck_gtid_executed = gtid_executed t;
    ck_last_committed_opid = t.last_committed_opid;
    ck_committed_count = h.length;
    ck_digests = List.init h.length (History.digest32 h);
    ck_commit_log = List.init h.length (History.nth h);
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
          (* [Hashtbl.replace]: a present key keeps its place *)
          let slot = Rows.find tbl.rows key in
          if slot == nil then
            Rows.add tbl.rows { key; value; last_writer; holder = nobody; next = nil }
          else begin
            slot.value <- value;
            slot.last_writer <- last_writer
          end)
        rows)
    ck.ck_rows;
  Binlog.Gtid_set.Acc.set t.gtid_executed ck.ck_gtid_executed;
  t.last_committed_opid <- ck.ck_last_committed_opid;
  let h = History.create () in
  List.iter2
    (fun d (gtid, opid) ->
      History.push h ~digest:(Int32.to_int d land 0xFFFF_FFFF) ~gtid ~opid)
    ck.ck_digests ck.ck_commit_log;
  t.history <- h

(* [No_sharing]: the bytes follow the checkpoint's values alone, not how
   its strings happen to be shared in the heap, so a snapshot's size (and
   with it its chunk count and transfer time) is the same on every
   replica holding the same rows. *)
let encode_checkpoint ck = Marshal.to_string ck [ Marshal.No_sharing ]

let decode_checkpoint s : checkpoint = Marshal.from_string s 0
