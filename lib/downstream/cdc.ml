(* Change data capture (§3, §5.1): a downstream service that tails a
   MySQL member's binary log — one of the consumers whose existence made
   "keep the binlog format" a design requirement for MyRaft, and which
   Meta's shadow testing exercised alongside the database.

   Correctness contract: the CDC stream contains exactly the
   consensus-committed transactions, in OpId order, each GTID exactly
   once — across failovers, truncations, and re-attachments to different
   members.  The tailer achieves this by never reading past its source's
   Raft commit index (an entry below the commit marker can never be
   truncated), and by de-duplicating on GTID when it resumes. *)

type record = {
  opid : Binlog.Opid.t;
  gtid : Binlog.Gtid.t;
  table : string;
  ops : Binlog.Event.row_op list;
}

let poll_interval = 50.0 *. Sim.Engine.ms

type t = {
  cluster : Myraft.Cluster.t;
  mutable source : string; (* member currently tailed *)
  mutable next_index : int;
  mutable streamed : record list; (* newest first *)
  mutable seen : Binlog.Gtid_set.t;
  mutable running : bool;
  mutable reattachments : int;
}

let records t = List.rev t.streamed

let record_count t = List.length t.streamed

let seen_gtids t = t.seen

let reattachments t = t.reattachments

let source t = t.source

let stop t = t.running <- false

let emit t entry =
  match Binlog.Entry.payload entry with
  | Binlog.Entry.Transaction { gtid; table; ops; _ } ->
    if not (Binlog.Gtid_set.contains t.seen gtid) then begin
      t.seen <- Binlog.Gtid_set.add t.seen gtid;
      t.streamed <- { opid = Binlog.Entry.opid entry; gtid; table; ops } :: t.streamed
    end
  | Binlog.Entry.Noop | Binlog.Entry.Config_change _ | Binlog.Entry.Rotate_marker _ -> ()

let poll t =
  match Myraft.Cluster.server t.cluster t.source with
  | Some server when not (Myraft.Server.is_crashed server) ->
    (* Only consensus-committed entries are stable enough to stream. *)
    let commit = Raft.Node.commit_index (Myraft.Server.raft server) in
    let log = Myraft.Server.log server in
    let rec drain () =
      if t.next_index <= commit then
        match Binlog.Log_store.entry_at log t.next_index with
        | Some entry ->
          emit t entry;
          t.next_index <- t.next_index + 1;
          drain ()
        | None ->
          (* purged beneath us: skip forward (the data was already
             streamed before it became purge-eligible, or predates this
             tailer's attachment point) *)
          t.next_index <- t.next_index + 1;
          drain ()
    in
    drain ()
  | _ -> ()

(* Re-attach to another live member, resuming from the same log
   position; GTID de-duplication covers any overlap. *)
let reattach t ~source =
  t.source <- source;
  t.reattachments <- t.reattachments + 1

(* Attach to any live MySQL member when the current source is down. *)
let find_live_source t =
  List.find_opt
    (fun srv -> not (Myraft.Server.is_crashed srv))
    (Myraft.Cluster.servers t.cluster)

let start ?(from_index = 1) ~source cluster =
  let t =
    {
      cluster;
      source;
      next_index = from_index;
      streamed = [];
      seen = Binlog.Gtid_set.empty;
      running = true;
      reattachments = 0;
    }
  in
  let engine = Myraft.Cluster.engine cluster in
  let rec tick () =
    if t.running then begin
      (match Myraft.Cluster.server cluster t.source with
      | Some srv when not (Myraft.Server.is_crashed srv) -> ()
      | _ -> (
        match find_live_source t with
        | Some srv -> reattach t ~source:(Myraft.Server.id srv)
        | None -> ()));
      poll t;
      ignore (Sim.Engine.schedule engine ~delay:poll_interval tick)
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:poll_interval tick);
  t

(* Validation helper: the stream must be strictly ordered by OpId with
   no duplicate GTIDs. *)
let validate t =
  let rec check prev = function
    | [] -> Ok (record_count t)
    | r :: rest ->
      if Binlog.Opid.compare r.opid prev <= 0 then
        Error
          (Printf.sprintf "out of order: %s after %s"
             (Binlog.Opid.to_string r.opid) (Binlog.Opid.to_string prev))
      else check r.opid rest
  in
  check Binlog.Opid.zero (records t)
