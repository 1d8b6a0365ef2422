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

type row = { value : string; mutable last_writer : Binlog.Gtid.t option }

type prepared = {
  gtid : Binlog.Gtid.t;
  writes : (string * Binlog.Event.row_op) list; (* (table, op) *)
  locked_keys : (string * string) list; (* (table, key) *)
}

exception Lock_conflict of { table : string; key : string; holder : Binlog.Gtid.t }

type t = {
  tables : (string, (string, row) Hashtbl.t) Hashtbl.t;
  prepared : (Binlog.Gtid.t, prepared) Hashtbl.t;
  locks : (string * string, Binlog.Gtid.t) Hashtbl.t;
  mutable gtid_executed : Binlog.Gtid_set.t; (* engine-durable *)
  mutable last_committed_opid : Binlog.Opid.t;
  mutable committed_count : int;
  mutable rolled_back_count : int;
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
    tables = Hashtbl.create 8;
    prepared = Hashtbl.create 64;
    locks = Hashtbl.create 64;
    gtid_executed = Binlog.Gtid_set.empty;
    last_committed_opid = Binlog.Opid.zero;
    committed_count = 0;
    rolled_back_count = 0;
    commit_digests = Vec.create ~dummy:0;
    commit_gtids = Vec.create ~dummy:(Binlog.Gtid.make ~source:"none" ~gno:1);
    commit_opids = Vec.create ~dummy:Binlog.Opid.zero;
    commit_listeners = [];
  }

let subscribe_commit t f = t.commit_listeners <- t.commit_listeners @ [ f ]

let table t name =
  match Hashtbl.find_opt t.tables name with
  | Some tbl -> tbl
  | None ->
    let tbl = Hashtbl.create 64 in
    Hashtbl.replace t.tables name tbl;
    tbl

let key_of_op = function
  | Binlog.Event.Insert { key; _ } | Update { key; _ } | Delete { key; _ } -> key

(* Stage a transaction.  Raises [Lock_conflict] if another prepared
   transaction holds a lock on any touched key. *)
let prepare t ~gtid ~writes =
  if Hashtbl.mem t.prepared gtid then invalid_arg "Engine.prepare: duplicate gtid";
  let locked_keys = List.map (fun (tbl, op) -> (tbl, key_of_op op)) writes in
  List.iter
    (fun (tbl, key) ->
      match Hashtbl.find_opt t.locks (tbl, key) with
      | Some holder when not (Binlog.Gtid.equal holder gtid) ->
        raise (Lock_conflict { table = tbl; key; holder })
      | _ -> ())
    locked_keys;
  List.iter (fun k -> Hashtbl.replace t.locks k gtid) locked_keys;
  Hashtbl.replace t.prepared gtid { gtid; writes; locked_keys }

let is_prepared t gtid = Hashtbl.mem t.prepared gtid

let prepared_gtids t = Hashtbl.fold (fun g _ acc -> g :: acc) t.prepared []

let release_locks t p = List.iter (fun k -> Hashtbl.remove t.locks k) p.locked_keys

(* Fold one commit's identity into the digest chain: previous digest,
   GTID, OpId, then each write's table/op-tag/fields.  Streaming the
   fields through the CRC allocates nothing; the old form marshalled the
   triple into a throwaway string and concatenated it on every commit on
   every node.  The digest is deterministic across replicas because the
   folded fields are exactly the replicated transaction identity. *)
let commit_digest ~prev ~gtid ~opid writes =
  let open Binlog.Checksum in
  let st = feed_int init prev in
  let st = feed_string st (Binlog.Gtid.source gtid) in
  let st = feed_int st (Binlog.Gtid.gno gtid) in
  let st = feed_int st (Binlog.Opid.term opid) in
  let st = feed_int st (Binlog.Opid.index opid) in
  let st =
    List.fold_left
      (fun st (tbl, op) ->
        let st = feed_string st tbl in
        match op with
        | Binlog.Event.Insert { key; value } ->
          feed_string (feed_string (feed_int st 1) key) value
        | Binlog.Event.Update { key; before; after } ->
          feed_string (feed_string (feed_string (feed_int st 2) key) before) after
        | Binlog.Event.Delete { key; before } ->
          feed_string (feed_string (feed_int st 3) key) before)
      st writes
  in
  finalize_int st

let apply_op t gtid (tbl_name, op) =
  let tbl = table t tbl_name in
  match op with
  | Binlog.Event.Insert { key; value } | Update { key; after = value; _ } ->
    Hashtbl.replace tbl key { value; last_writer = Some gtid }
  | Delete { key; _ } -> Hashtbl.remove tbl key

(* Durably commit a prepared transaction, stamping the Raft OpId. *)
let commit_prepared t ~gtid ~opid =
  match Hashtbl.find_opt t.prepared gtid with
  | None -> invalid_arg ("Engine.commit_prepared: not prepared: " ^ Binlog.Gtid.to_string gtid)
  | Some p ->
    List.iter (apply_op t gtid) p.writes;
    release_locks t p;
    Hashtbl.remove t.prepared gtid;
    t.gtid_executed <- Binlog.Gtid_set.add t.gtid_executed gtid;
    if Binlog.Opid.compare opid t.last_committed_opid > 0 then
      t.last_committed_opid <- opid;
    t.committed_count <- t.committed_count + 1;
    let n = Vec.length t.commit_digests in
    let prev = if n = 0 then 0 else Vec.get t.commit_digests (n - 1) in
    Vec.push t.commit_digests (commit_digest ~prev ~gtid ~opid p.writes);
    Vec.push t.commit_gtids gtid;
    Vec.push t.commit_opids opid;
    List.iter (fun f -> f gtid opid) t.commit_listeners

let rollback_prepared t ~gtid =
  match Hashtbl.find_opt t.prepared gtid with
  | None -> ()
  | Some p ->
    release_locks t p;
    Hashtbl.remove t.prepared gtid;
    t.rolled_back_count <- t.rolled_back_count + 1

(* Restart semantics: prepared transactions are rolled back; committed
   state, gtid_executed, and last_committed_opid survive (they live in
   the engine's WAL). *)
let crash_recover t =
  let pending = prepared_gtids t in
  List.iter (fun gtid -> rollback_prepared t ~gtid) pending;
  List.length pending

let get t ~table:tbl_name ~key =
  match Hashtbl.find_opt t.tables tbl_name with
  | None -> None
  | Some tbl -> Option.map (fun r -> r.value) (Hashtbl.find_opt tbl key)

let gtid_executed t = t.gtid_executed

let has_committed t gtid = Binlog.Gtid_set.contains t.gtid_executed gtid

let last_committed_opid t = t.last_committed_opid

let committed_count t = t.committed_count

let rolled_back_count t = t.rolled_back_count

let row_count t ~table:tbl_name =
  match Hashtbl.find_opt t.tables tbl_name with None -> 0 | Some tbl -> Hashtbl.length tbl

(* Content digest used by the shadow-testing checksum comparisons between
   leader and followers (§5.1). *)
let checksum t =
  let rows = ref [] in
  Hashtbl.iter
    (fun tbl_name tbl ->
      Hashtbl.iter (fun key r -> rows := (tbl_name, key, r.value) :: !rows) tbl)
    t.tables;
  let sorted = List.sort compare !rows in
  Binlog.Checksum.string (Marshal.to_string sorted [])

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
    Hashtbl.fold
      (fun tbl_name tbl acc ->
        let rows =
          Hashtbl.fold (fun key r acc -> (key, r.value, r.last_writer) :: acc) tbl []
        in
        (tbl_name, rows) :: acc)
      t.tables []
  in
  {
    ck_rows = rows;
    ck_gtid_executed = t.gtid_executed;
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
  Hashtbl.reset t.tables;
  Hashtbl.reset t.locks;
  List.iter
    (fun (tbl_name, rows) ->
      let tbl = table t tbl_name in
      List.iter
        (fun (key, value, last_writer) -> Hashtbl.replace tbl key { value; last_writer })
        rows)
    ck.ck_rows;
  t.gtid_executed <- ck.ck_gtid_executed;
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

let encode_checkpoint ck = Marshal.to_string ck []

let decode_checkpoint s : checkpoint = Marshal.from_string s 0
