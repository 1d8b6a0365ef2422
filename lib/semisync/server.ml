(* A MySQL server under the prior setup (§1.1, §6): semi-synchronous
   replication to in-region acker logtailers, asynchronous replication to
   remote replicas, and *no* internal failure handling — role changes are
   performed from outside by the Orchestrator.

   The commit pipeline is the same three-stage MySQL group-commit engine
   as MyRaft's (flush / wait / engine-commit); the difference is that the
   wait stage is released by the first semi-sync acker acknowledgement
   instead of Raft's consensus-commit marker, and there is no term/fencing
   machinery: an isolated primary simply blocks (its clients time out),
   which is exactly the behaviour whose operational cost §6.2 quantifies. *)

type role = Primary | Replica

type peer = {
  peer_id : string;
  is_acker : bool;
  mutable acked_seq : int;
  mutable ship_inflight : bool;
  mutable last_ship : float;
}

(* A client write in the commit pipeline: the only record the pipeline
   carries per transaction; its stage functions are [flush_write] and
   [finish_write]. *)
type write = {
  client : string; (* the session's address; "" for a local [submit_write] *)
  write_id : int;
  local : (Binlog.Gtid.t option -> unit) option; (* [submit_write]'s reply *)
  gtid : Binlog.Gtid.t;
  events : Binlog.Event.t list;
  prepared : Storage.Engine.prepared;
  mutable seq : int; (* its binlog index, assigned at flush *)
}

type t = {
  id : string;
  region : string;
  replicaset : string;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  costs : Myraft.Params.t; (* shared MySQL cost model *)
  send : dst:string -> Wire.t -> unit;
  discovery : Myraft.Service_discovery.t;
  storage : Storage.Engine.t;
  log : Binlog.Log_store.t;
  mutable pipeline : write Myraft.Pipeline.t;
  mutable role : role;
  mutable writes_enabled : bool;
  mutable crashed : bool;
  mutable upstream : string option; (* replica: who we accept entries from *)
  peers : (string, peer) Hashtbl.t; (* primary: shipping state *)
  mutable semisync_acked : int; (* highest seq acked by an acker *)
  mutable next_gno : int;
  mutable next_xid : int;
  table_maps : Binlog.Event.table_maps; (* one Table_map event per table *)
  mutable ship_timer : Sim.Engine.handle; (* [Sim.Engine.none] when disarmed *)
  (* replica apply loop *)
  mutable apply_queue : Binlog.Entry.t Queue.t;
  mutable apply_busy : bool;
  mutable applied_seq : int;
}

let id t = t.id

let region t = t.region

let role t = t.role

let writes_enabled t = t.writes_enabled

let is_crashed t = t.crashed

let storage t = t.storage

let log t = t.log

let last_seq t = Binlog.Opid.index (Binlog.Log_store.last_opid t.log)

let applied_seq t = t.applied_seq

let pipeline_in_flight t = Myraft.Pipeline.in_flight t.pipeline

let tracef t fmt = Sim.Trace.record t.trace ~tag:"semisync" fmt

(* ----- primary: shipping ----- *)

let ship_to t peer =
  if t.role = Primary && not peer.ship_inflight then begin
    let from_seq = peer.acked_seq + 1 in
    let entries =
      Binlog.Log_store.entries_from t.log ~from_index:from_seq
        ~max_count:Params.max_entries_per_ship
    in
    if entries <> [] then begin
      peer.ship_inflight <- true;
      peer.last_ship <- Sim.Engine.now t.engine;
      t.send ~dst:peer.peer_id (Wire.Replicate { entries })
    end
  end

let ship_all t = Hashtbl.iter (fun _ peer -> ship_to t peer) t.peers

let rec ship_tick t =
  if t.role = Primary && not t.crashed then begin
    (* Retransmission: clear the in-flight marker only for peers whose
       last ship is stale (lost message or dead peer), so slow-but-alive
       cross-region links are not flooded with duplicates. *)
    let now = Sim.Engine.now t.engine in
    Hashtbl.iter
      (fun _ p ->
        if now -. p.last_ship > 5.0 *. Params.ship_interval then
          p.ship_inflight <- false)
      t.peers;
    ship_all t;
    t.ship_timer <-
      Sim.Engine.schedule t.engine ~delay:Params.ship_interval (fun () -> ship_tick t)
  end

(* ----- client write path ----- *)

(* A write's outcome goes back to the client session that sent it, or
   to the reply of a local [submit_write]: [Some gtid] on commit, [None]
   on rejection. *)
let send_outcome t ~client ~write_id ~local gtid =
  match local with
  | None -> t.send ~dst:client (Wire.Write_reply { write_id; ok = gtid <> None; gtid })
  | Some reply -> reply gtid

let reject t ~client ~write_id ~local =
  send_outcome t ~client ~write_id ~local None

let prepare_write t ~client ~write_id ~local ~table ~ops =
  if t.crashed || t.role <> Primary || not t.writes_enabled then
    reject t ~client ~write_id ~local
  else begin
    let gtid = Binlog.Gtid.make ~source:t.id ~gno:t.next_gno in
    t.next_gno <- t.next_gno + 1;
    let events =
      [
        Binlog.Event.make (Binlog.Event.Gtid_event gtid);
        Binlog.Event.table_map t.table_maps table;
        Binlog.Event.make (Binlog.Event.Write_rows { table; ops });
        Binlog.Event.make (Binlog.Event.Xid { xid = t.next_xid });
      ]
    in
    match Storage.Engine.prepare t.storage ~gtid ~events with
    | exception Storage.Engine.Lock_conflict _ -> reject t ~client ~write_id ~local
    | prepared ->
      t.next_xid <- t.next_xid + 1;
      Myraft.Pipeline.submit t.pipeline
        { client; write_id; local; gtid; events; prepared; seq = 0 }
  end

(* The prepare event of a session's write: the request itself is the
   event's argument. *)
let prepare_request t = function
  | Wire.Write_request { write_id; table; ops; client } ->
    prepare_write t ~client ~write_id ~local:None ~table ~ops
  | _ -> ()

let admit t ~client ~write_id ~local =
  if t.crashed then false
  else if t.role <> Primary || not t.writes_enabled then begin
    reject t ~client ~write_id ~local;
    false
  end
  else true

let submit_write t ~table ~ops ~reply =
  let local = Some reply in
  if admit t ~client:"" ~write_id:0 ~local then
    ignore
      (Sim.Engine.schedule t.engine ~delay:t.costs.Myraft.Params.prepare_us (fun () ->
           prepare_write t ~client:"" ~write_id:0 ~local ~table ~ops))

(* Stage 1: append to the binlog and ship. *)
let flush_write t w =
  let index = last_seq t + 1 in
  let entry =
    Binlog.Entry.make
      ~opid:(Binlog.Opid.make ~term:1 ~index)
      (Binlog.Entry.Transaction { gtid = w.gtid; events = w.events })
  in
  Binlog.Log_store.append t.log entry;
  w.seq <- index;
  ship_all t;
  index

(* Stage 3: engine commit and reply (or rollback and reject). *)
let finish_write t w ~ok =
  if ok && Storage.Engine.live w.prepared then begin
    Storage.Engine.commit_prepared t.storage w.prepared
      ~opid:(Binlog.Opid.make ~term:1 ~index:w.seq);
    send_outcome t ~client:w.client ~write_id:w.write_id ~local:w.local (Some w.gtid)
  end
  else begin
    Storage.Engine.rollback_prepared t.storage w.prepared;
    reject t ~client:w.client ~write_id:w.write_id ~local:w.local
  end

let make_pipeline t =
  Myraft.Pipeline.create ~engine:t.engine ~params:t.costs ~is_primary_path:false
    ~flush:(flush_write t) ~finish:(finish_write t) ()

(* ----- read path (prior setup) -----

   The semi-sync stack has no ReadIndex, no leases and no staleness
   propagation, so the tiers degrade exactly as §1.1 describes:
   [Linearizable] reads must go to the (believed) primary — and are
   genuinely unsafe during the orchestrator's failover window, which is
   the A/B point; [Bounded_staleness] cannot be verified on replicas and
   is only honoured on the primary; [Read_your_writes] uses the engine's
   GTID set; [Eventual] reads any replica. *)

let serve_read t ~level ~table ~key k =
  if t.crashed then ()
  else begin
    let value () = Ok (Storage.Engine.get t.storage ~table ~key) in
    match level with
    | Read.Level.Eventual | Read.Level.Read_your_writes None -> k (value ())
    | Read.Level.Read_your_writes (Some gtid) ->
      if Storage.Engine.has_committed t.storage gtid then k (value ())
      else k (Error "read-your-writes: session write not yet applied here")
    | Read.Level.Linearizable | Read.Level.Bounded_staleness _ ->
      if t.role = Primary && t.writes_enabled then k (value ())
      else k (Error "consistent reads require the primary (no staleness tracking)")
  end

(* ----- replica: receive + apply ----- *)

let rec apply_loop t =
  if (not t.apply_busy) && not t.crashed then
    match Queue.take_opt t.apply_queue with
    | None -> ()
    | Some entry ->
      t.apply_busy <- true;
      ignore
        (Sim.Engine.schedule t.engine ~delay:t.costs.Myraft.Params.apply_per_txn_us
           (fun () ->
             (match Binlog.Entry.payload entry with
             | Binlog.Entry.Transaction { gtid; events } ->
               if not (Storage.Engine.has_committed t.storage gtid) then begin
                 match Storage.Engine.prepare t.storage ~gtid ~events with
                 | p ->
                   (* Async apply: no consensus gate in the prior setup. *)
                   Storage.Engine.commit_prepared t.storage p ~opid:(Binlog.Entry.opid entry)
                 | exception Storage.Engine.Lock_conflict _ -> ()
               end
             | Binlog.Entry.Rotate_marker _ -> Binlog.Log_store.rotate t.log
             | Binlog.Entry.Noop | Binlog.Entry.Config_change _ -> ());
             t.applied_seq <- max t.applied_seq (Binlog.Entry.index entry);
             t.apply_busy <- false;
             apply_loop t))

let handle_replicate t ~src entries =
  if t.role = Replica && t.upstream = Some src then begin
    List.iter
      (fun entry ->
        if Binlog.Entry.index entry = last_seq t + 1 then begin
          Binlog.Log_store.append t.log entry;
          Queue.add entry t.apply_queue
        end)
      entries;
    apply_loop t;
    t.send ~dst:src (Wire.Ack { seq = last_seq t; from_acker = false })
  end

let handle_ack t ~src ~seq ~from_acker =
  if t.role = Primary then begin
    (match Hashtbl.find_opt t.peers src with
    | Some peer ->
      peer.ship_inflight <- false;
      if seq > peer.acked_seq then peer.acked_seq <- seq;
      ship_to t peer
    | None -> ());
    if from_acker && seq > t.semisync_acked then begin
      t.semisync_acked <- seq;
      Myraft.Pipeline.notify_commit_index t.pipeline seq
    end
  end

(* ----- role changes (driven by the Orchestrator) ----- *)

let disable_writes t = t.writes_enabled <- false

(* How far a replica's relay log position is — the orchestrator queries
   this to pick the best failover target. *)
let position t = (last_seq t, t.applied_seq)

let promote t ~peers:peer_list =
  t.role <- Primary;
  t.upstream <- None;
  Binlog.Log_store.switch_mode t.log Binlog.Log_store.Binlog;
  Hashtbl.reset t.peers;
  List.iter
    (fun (peer_id, is_acker) ->
      if peer_id <> t.id then
        Hashtbl.replace t.peers peer_id
          { peer_id; is_acker; acked_seq = 0; ship_inflight = false; last_ship = 0.0 })
    peer_list;
  t.semisync_acked <- 0;
  t.pipeline <- make_pipeline t;
  t.next_gno <- Binlog.Gtid_set.max_gno (Binlog.Log_store.gtid_set t.log) ~source:t.id + 1;
  t.writes_enabled <- true;
  tracef t "%s: promoted to primary (semisync)" t.id

let demote t ~new_upstream =
  if t.role = Primary then begin
    ignore (Myraft.Pipeline.abort_all t.pipeline);
    List.iter (Storage.Engine.rollback_gtid t.storage) (Storage.Engine.prepared_gtids t.storage)
  end;
  t.role <- Replica;
  t.writes_enabled <- false;
  t.upstream <- new_upstream;
  Binlog.Log_store.switch_mode t.log Binlog.Log_store.Relay;
  t.applied_seq <- Binlog.Opid.index (Storage.Engine.last_committed_opid t.storage);
  tracef t "%s: demoted to replica (semisync)" t.id

let repoint t ~new_upstream =
  t.upstream <- Some new_upstream;
  tracef t "%s: repointed to %s" t.id new_upstream

let start_as_primary t ~peers:peer_list =
  promote t ~peers:peer_list;
  ship_tick t

(* ----- crash / restart ----- *)

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    t.writes_enabled <- false;
    Sim.Engine.cancel t.ship_timer;
    t.ship_timer <- Sim.Engine.none;
    ignore (Myraft.Pipeline.abort_all t.pipeline);
    Queue.clear t.apply_queue;
    t.apply_busy <- false;
    tracef t "%s: CRASHED" t.id
  end

let restart t ~upstream =
  if t.crashed then begin
    t.crashed <- false;
    ignore (Storage.Engine.crash_recover t.storage);
    t.pipeline <- make_pipeline t;
    t.role <- Replica;
    t.upstream <- upstream;
    Binlog.Log_store.switch_mode t.log Binlog.Log_store.Relay;
    t.applied_seq <- Binlog.Opid.index (Storage.Engine.last_committed_opid t.storage);
    (* Prior-setup rejoin repair: discard the binlog tail beyond the
       engine's recovery point — a possibly divergent suffix written
       before the crash.  (Automation did this with binlog surgery; the
       lack of a principled protocol here is part of why Raft won.) *)
    ignore (Binlog.Log_store.truncate_from t.log ~from_index:(t.applied_seq + 1));
    tracef t "%s: restarted as replica" t.id
  end

(* ----- message dispatch ----- *)

let handle_message t ~src msg =
  if not t.crashed then
    match msg with
    | Wire.Replicate { entries } -> handle_replicate t ~src entries
    | Wire.Ack { seq; from_acker } -> handle_ack t ~src ~seq ~from_acker
    | Wire.Write_request { write_id; client; _ } ->
      if admit t ~client ~write_id ~local:None then
        ignore
          (Sim.Engine.schedule_call t.engine ~delay:t.costs.Myraft.Params.prepare_us
             prepare_request t msg)
    | Wire.Read_request { read_id; level; table; key; client } ->
      serve_read t ~level ~table ~key (fun value ->
          t.send ~dst:client (Wire.Read_reply { read_id; value }))
    | Wire.Write_reply _ | Wire.Read_reply _ -> ()
    | Wire.Ping { ping_id } -> t.send ~dst:src (Wire.Pong { ping_id })
    | Wire.Pong _ -> ()

let create ~engine ~id ~region ~replicaset ~send ~discovery ~costs ~trace () =
  let t =
    {
      id;
      region;
      replicaset;
      engine;
      trace;
      costs;
      send;
      discovery;
      storage = Storage.Engine.create ();
      log = Binlog.Log_store.create ~mode:Binlog.Log_store.Relay ();
      pipeline =
        (* replaced below: the pipeline's stage functions need [t] *)
        Myraft.Pipeline.create ~engine ~params:costs ~is_primary_path:false
          ~flush:(fun _ -> -1)
          ~finish:(fun _ ~ok:_ -> ())
          ();
      role = Replica;
      writes_enabled = false;
      crashed = false;
      upstream = None;
      peers = Hashtbl.create 16;
      semisync_acked = 0;
      next_gno = 1;
      next_xid = 1;
      table_maps = Binlog.Event.table_maps ();
      ship_timer = Sim.Engine.none;
      apply_queue = Queue.create ();
      apply_busy = false;
      applied_seq = 0;
    }
  in
  t.pipeline <- make_pipeline t;
  t
