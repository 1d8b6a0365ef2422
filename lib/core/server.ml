(* A MyRaft MySQL server: storage engine + replication log + commit
   pipeline + applier, integrated with Raft through the mysql_raft_repl
   plugin (§3).

   The plugin surface is the [callbacks] record handed to the Raft node:
   Raft orchestrates MySQL's role through it (promotion/demotion of
   §3.3), advances the pipeline's consensus-commit watermark, signals the
   applier about new relay-log entries, and reports truncations so GTID
   metadata can be cleaned up.  Raft reads and writes the server's
   binlog/relay-log through the log abstraction, [Binlog.Log_store].

   Durable state (survives crash/restart): storage engine contents, log
   files, Raft term/vote.  Everything else is rebuilt by [restart]. *)

type role = Primary | Replica

let role_to_string = function Primary -> "primary" | Replica -> "replica"

(* A transaction in the commit pipeline: the only record the pipeline
   carries per client write or relay-log entry.  The pipeline's stage
   functions ([flush_txn], [finish_txn]) dispatch on it, so no stage
   builds a closure. *)
type txn =
  | Client_write of {
      req : Wire.write_request; (* the session's request, as it arrived *)
      local : (Wire.write_outcome -> unit) option; (* [submit_write]'s reply *)
      gtid : Binlog.Gtid.t;
      xid : int; (* its XID event's id; the request holds its table and rows *)
      prepared : Storage.Engine.prepared;
      mutable opid : Binlog.Opid.t; (* assigned by Raft at flush *)
    }
  | Relay_txn of Applier.ticket
      (* a relay-log transaction: the ticket holds its entry and the
         prepared transaction *)
  | Relay_marker of Applier.ticket
      (* a no-op, config change or rotate event ordered through the
         pipeline; a rotate closes the relay-log file at commit *)
  | Binlog_rotate (* FLUSH BINARY LOGS on the primary *)

type t = {
  id : string;
  region : string;
  group : int; (* multi-Raft group tag; 0 outside shard mode *)
  replicaset : string;
  engine : Sim.Engine.t;
  clock : Sim.Clock.t;
    (* this server's local clock: Raft timers, lease arithmetic and the
       read path's staleness anchors all run on it, so injected clock
       faults distort exactly what they would on a real host.  Trace and
       metrics timestamps intentionally stay on engine (true) time. *)
  trace : Sim.Trace.t;
  params : Params.t;
  send : dst:string -> Wire.t -> unit;
  discovery : Service_discovery.t;
  initial_config : Raft.Types.config;
  (* durable across crashes *)
  storage : Storage.Engine.t;
  log : Binlog.Log_store.t;
  durable : Raft.Node.durable;
  (* volatile *)
  mutable raft : Raft.Node.t option;
  mutable pipeline : txn Pipeline.t;
  mutable applier : Applier.t option;
  mutable role : role;
  mutable writes_enabled : bool;
  mutable crashed : bool;
  mutable next_gno : int;
  mutable next_xid : int;
  mutable orchestration_epoch : int; (* invalidates in-flight orchestrations *)
  rng : Sim.Rng.t;
  writeset : Binlog.Writeset.t; (* primary-side dependency tracker *)
  (* observability *)
  metrics : Obs.Metrics.t;
  m_writes_committed : Obs.Metrics.counter; (* resolved once: bumped per commit *)
  m_writes_rejected : Obs.Metrics.counter;
  tracebuf : Obs.Tracebuf.t option;
  (* read path *)
  mutable exec_index : int;
  (* Highest log index i such that every transaction entry <= i is
     committed in the local engine: the applied-through watermark a read
     at index i waits on.  Non-transaction entries (noop/config/rotate)
     don't change engine state and pass through freely.  Unlike
     [Applier.applied_index] this cursor also works on the primary
     (whose applier is stopped) and across role changes. *)
  mutable apply_waiters : (int * (unit -> unit)) list;
  mutable min_apply_waiter : int; (* smallest index in [apply_waiters]; max_int if none *)
  gtid_waiters : (Binlog.Gtid.t, gtid_waiter list) Hashtbl.t;
  mutable read_service : Read.Service.t option;
  mutable read_reply : Wire.read_request -> Read.Service.outcome -> unit;
      (* [reply_read t], built once: a client read's reply function *)
  (* At-most-once session layer for client writes: highest write_id
     executed per client.  Client write_ids are monotone per session and
     healthy links are FIFO, so a Write_request at or below the floor can
     only be a frame the chaos network duplicated (or re-ordered past its
     successor) — re-executing it would mint a fresh GTID for a stale
     payload and silently roll the row backwards, which is exactly the
     write regression the linearizable-register checker flags.  A real
     SQL session (one TCP stream) can never replay a transaction this
     way.  In-memory only: a crash loses the floors, like a real server
     losing its sessions. *)
  client_write_floor : (string, int) Hashtbl.t;
}

and gtid_waiter = {
  gw_done : bool ref;
  gw_timer : Sim.Engine.handle;
  gw_k : bool -> unit;
}

let id t = t.id

let clock t = t.clock

let raft t = match t.raft with Some r -> r | None -> failwith (t.id ^ ": raft not wired")

let applier t =
  match t.applier with Some a -> a | None -> failwith (t.id ^ ": applier not wired")

let role t = t.role

let writes_enabled t = t.writes_enabled

let is_crashed t = t.crashed

let storage t = t.storage

let log t = t.log

let pipeline t = t.pipeline

let metrics t = t.metrics

(* OpId-correlated trace event on the shared ring (when wired). *)
let trace_event t ~stage ~term ~index =
  match t.tracebuf with
  | Some tb ->
    Obs.Tracebuf.record tb ~time:(Sim.Engine.now t.engine) ~node:t.id ~stage ~term
      ~index ()
  | None -> ()

let gtid_executed t =
  match t.role with
  | Primary -> Binlog.Log_store.gtid_set t.log
  | Replica -> Storage.Engine.gtid_executed t.storage

let tracef t fmt = Sim.Trace.record t.trace ~tag:"mysql" fmt

(* ----- applied-through cursor + commit-event waiters (read path) ----- *)

(* The last index of the contiguous run from [i] whose effects the
   engine already holds.  Top-level and option-free: it runs on every
   engine commit. *)
let rec exec_scan t i =
  let e = Binlog.Log_store.slot t.log i in
  if e == Binlog.Log_store.absent then i - 1
  else
    match Binlog.Entry.payload e with
    | Binlog.Entry.Transaction { gtid; _ } ->
      if Storage.Engine.has_committed t.storage gtid then exec_scan t (i + 1) else i - 1
    | Binlog.Entry.Noop | Binlog.Entry.Config_change _ | Binlog.Entry.Rotate_marker _ ->
      exec_scan t (i + 1)

let rec min_waiting_index acc = function
  | [] -> acc
  | (index, _) :: rest -> min_waiting_index (min acc index) rest

(* Release the apply waiters at or below [exec_index], in list order.
   Most cursor moves release none: the smallest waiting index says so
   without a walk. *)
let release_apply_waiters t =
  if t.min_apply_waiter <= t.exec_index then begin
    let through = t.exec_index in
    let ready, waiting = List.partition (fun (index, _) -> index <= through) t.apply_waiters in
    t.apply_waiters <- waiting;
    t.min_apply_waiter <- min_waiting_index max_int waiting;
    List.iter (fun (_, k) -> k ()) ready
  end

(* Advance [exec_index] over contiguous entries whose effects the engine
   already holds, then release apply waiters the advance satisfied. *)
let advance_exec_cursor t =
  let advanced = exec_scan t (t.exec_index + 1) in
  if advanced > t.exec_index then begin
    t.exec_index <- advanced;
    release_apply_waiters t
  end

(* The engine-applied watermark for reads (recomputed lazily: commits by
   the client path, the applier, and noop passthrough all move it). *)
let applied_through t =
  advance_exec_cursor t;
  t.exec_index

let wait_applied t index k =
  advance_exec_cursor t;
  if t.exec_index >= index then k ()
  else begin
    t.apply_waiters <- (index, k) :: t.apply_waiters;
    t.min_apply_waiter <- min t.min_apply_waiter index
  end

(* WAIT_FOR_EXECUTED_GTID_SET: block until the transaction is in the
   local engine — the MySQL primitive behind read-your-writes on a
   replica.  Event-driven: the waiter parks on the engine's commit
   notification and fires the instant the GTID commits (or at
   [timeout]), not on the next poll tick.  [k] receives whether the GTID
   arrived in time. *)
let wait_for_executed_gtid t gtid ~timeout ~k =
  if t.crashed then k false
  else if Storage.Engine.has_committed t.storage gtid then k true
  else begin
    let done_ = ref false in
    let timer =
      Sim.Engine.schedule t.engine ~delay:timeout (fun () ->
          if not !done_ then begin
            done_ := true;
            (match Hashtbl.find_opt t.gtid_waiters gtid with
            | Some ws ->
              let ws = List.filter (fun w -> not !(w.gw_done)) ws in
              if ws = [] then Hashtbl.remove t.gtid_waiters gtid
              else Hashtbl.replace t.gtid_waiters gtid ws
            | None -> ());
            k false
          end)
    in
    let waiter = { gw_done = done_; gw_timer = timer; gw_k = k } in
    let bucket =
      match Hashtbl.find_opt t.gtid_waiters gtid with Some ws -> ws | None -> []
    in
    Hashtbl.replace t.gtid_waiters gtid (waiter :: bucket)
  end

(* One subscription per server lifetime (the engine outlives restarts):
   every engine commit advances the cursor and wakes matching GTID
   waiters. *)
let install_commit_listener t =
  Storage.Engine.subscribe_commit t.storage (fun gtid _opid ->
      advance_exec_cursor t;
      (* most commits have no reader waiting: skip hashing the GTID *)
      if Hashtbl.length t.gtid_waiters > 0 then
        match Hashtbl.find_opt t.gtid_waiters gtid with
        | Some ws ->
          Hashtbl.remove t.gtid_waiters gtid;
          List.iter
            (fun w ->
              if not !(w.gw_done) then begin
                w.gw_done := true;
                Sim.Engine.cancel w.gw_timer;
                w.gw_k true
              end)
            ws
        | None -> ())

(* Orchestration steps run over a live fleet; their durations vary run to
   run (I/O, scheduling, service-discovery load).  Scale a nominal step
   cost by a lognormal factor with median 1. *)
let jittered t nominal = nominal *. Sim.Rng.lognormal t.rng ~mu:0.0 ~sigma:0.35

(* ----- applier wiring (§3.5) ----- *)

(* One prepare attempt for a relay-log transaction.  A top-level
   function rather than a closure, so the first attempt — nearly every
   attempt — allocates no retry state.  [tk] is the applier's fencing
   ticket: a transaction truncated out of the log while its prepare
   waited on a row lock must not zombie-prepare later. *)
let rec applier_prepare t entry tk ~gtid ~table ~ops ~attempts =
  if not (Applier.live tk) then
    () (* entry truncated / applier restarted while waiting: abandon *)
  else if Storage.Engine.has_committed t.storage gtid then begin
    Applier.finished tk ~ok:true;
    Applier.submitted tk
  end
  else if Storage.Engine.is_prepared t.storage gtid then
    (* An in-flight copy of the same transaction (e.g. submitted by the
       client path before a role change) is already in the pipeline;
       wait for it to settle. *)
    applier_retry t entry tk ~gtid ~table ~ops ~attempts
  else
    match Storage.Engine.prepare t.storage ~gtid ~table ~ops with
    | p ->
      Applier.set_prepared tk p;
      Pipeline.submit t.pipeline (Relay_txn tk);
      Applier.submitted tk
    | exception Storage.Engine.Lock_conflict _ ->
      (* A row lock is held by an in-pipeline transaction; it will be
         released at its engine commit.  Retry shortly — and do NOT
         release the applier: letting later entries into the pipeline
         first would engine-commit them ahead of this one, breaking
         commit order (slave_preserve_commit_order) and the recovery
         cursor's prefix assumption. *)
      applier_retry t entry tk ~gtid ~table ~ops ~attempts

and applier_retry t entry tk ~gtid ~table ~ops ~attempts =
  let attempts = attempts + 1 in
  if attempts > 100_000 then begin
    Applier.finished tk ~ok:false;
    Applier.submitted tk (* give up; unwedge the applier *)
  end
  else
    ignore
      (Sim.Engine.schedule t.engine ~delay:(50.0 *. Sim.Engine.us) (fun () ->
           applier_prepare t entry tk ~gtid ~table ~ops ~attempts))

(* Execute one relay-log entry: prepare the transaction in the engine and
   push it into the commit pipeline, where it awaits the consensus-commit
   marker before engine commit. *)
let applier_process t entry tk =
  match Binlog.Entry.payload entry with
  | Binlog.Entry.Transaction { gtid; table; ops; _ } ->
    if Storage.Engine.has_committed t.storage gtid then begin
      (* idempotent replay *)
      Applier.finished tk ~ok:true;
      Applier.submitted tk
    end
    else applier_prepare t entry tk ~gtid ~table ~ops ~attempts:0
  | Binlog.Entry.Rotate_marker _ | Binlog.Entry.Noop | Binlog.Entry.Config_change _ ->
    (* Nothing to execute, but order through the pipeline so
       applied_index remains a committed-prefix watermark; a replicated
       rotate event (§A.1) closes the current relay-log file once it is
       consensus committed. *)
    Pipeline.submit t.pipeline (Relay_marker tk);
    Applier.submitted tk

(* ----- orchestration: replica -> primary (§3.3) ----- *)

let rec promotion_catchup t ~epoch ~noop_index =
  if t.orchestration_epoch = epoch && not t.crashed then begin
    let r = raft t in
    if not (Raft.Node.is_leader r) then tracef t "%s: promotion cancelled (lost leadership)" t.id
    else if
      Raft.Node.commit_index r >= noop_index
      && Applier.applied_index (applier t) >= noop_index
    then promotion_rewire t ~epoch
    else
      ignore
        (Sim.Engine.schedule t.engine ~delay:Params.catchup_check_interval_us
           (fun () -> promotion_catchup t ~epoch ~noop_index))
  end

and promotion_rewire t ~epoch =
  (* Step 3: stop the applier and rewire relay-log -> binlog. *)
  Applier.stop (applier t);
  ignore
    (Sim.Engine.schedule t.engine ~delay:(jittered t Params.rewire_logs_us) (fun () ->
         if t.orchestration_epoch = epoch && not t.crashed && Raft.Node.is_leader (raft t)
         then begin
           Binlog.Log_store.switch_mode t.log Binlog.Log_store.Binlog;
           ignore
             (Sim.Engine.schedule t.engine ~delay:(jittered t Params.enable_writes_us)
                (fun () ->
                  if
                    t.orchestration_epoch = epoch && not t.crashed
                    && Raft.Node.is_leader (raft t)
                  then begin
                    (* Step 4: allow client writes.  A fresh primary starts
                       a new dependency-tracking epoch: the term-opening
                       no-op is a scheduling barrier on every replica, so
                       intervals never span leaderships. *)
                    Binlog.Writeset.clear t.writeset;
                    t.role <- Primary;
                    t.writes_enabled <- true;
                    t.next_gno <-
                      Binlog.Gtid_set.max_gno (Binlog.Log_store.gtid_set t.log)
                        ~source:t.id
                      + 1;
                    Obs.Metrics.bump t.metrics "server.promotions";
                    tracef t "%s: promoted to primary (term %d)" t.id
                      (Raft.Node.current_term (raft t));
                    (* Step 5: publish the new role to service discovery. *)
                    Service_discovery.publish_primary t.discovery
                      ~replicaset:t.replicaset ~primary:t.id
                      ~delay:(jittered t Params.publish_discovery_us)
                  end))
         end))

let begin_promotion t ~noop_index =
  t.orchestration_epoch <- t.orchestration_epoch + 1;
  let epoch = t.orchestration_epoch in
  tracef t "%s: promotion orchestration started (noop %d)" t.id noop_index;
  (* Step 1 is the no-op Raft already appended.  Step 2: catch the applier
     up to it.  The no-op (and possibly a relay-log backlog) was appended
     locally by Raft itself, so the applier is re-pointed at the engine's
     recovery cursor and fed the whole local log suffix — which includes
     the no-op. *)
  Applier.stop (applier t);
  let from_index = Binlog.Opid.index (Storage.Engine.last_committed_opid t.storage) + 1 in
  let backlog = Binlog.Log_store.entries_from t.log ~from_index ~max_count:max_int in
  Applier.start (applier t) ~from_index ~backlog;
  promotion_catchup t ~epoch ~noop_index

(* ----- orchestration: primary -> replica (§3.3) ----- *)

let start_applier_from_recovery_point t =
  (* Step 5: position the applier from the engine's recovery protocol —
     the last transaction committed in engine determines the cursor.  A
     compacted log cannot replay below its purge boundary; everything
     there is covered by the engine state that came with the
     snapshot/backup, so the cursor starts at the boundary at least. *)
  let recovered =
    Binlog.Opid.index (Storage.Engine.last_committed_opid t.storage) + 1
  in
  let from_index = max recovered (Binlog.Log_store.purged_below t.log) in
  let backlog = Binlog.Log_store.entries_from t.log ~from_index ~max_count:max_int in
  Applier.start (applier t) ~from_index ~backlog

(* Re-point the applier at the engine's recovery cursor after engine and
   log were seeded behind its back (backup restore into a fresh member):
   the applier's low-water-mark must start at the seeded position, not
   the empty-server one it was created with. *)
let reposition_applier t = if t.role = Replica then start_applier_from_recovery_point t

let begin_demotion t =
  t.orchestration_epoch <- t.orchestration_epoch + 1;
  let epoch = t.orchestration_epoch in
  tracef t "%s: demotion orchestration started" t.id;
  (* Step 1: abort in-flight transactions (waiting for consensus): they
     are prepared in the engine, so roll them back online. *)
  let aborted_items = Pipeline.abort_all t.pipeline in
  let pending = Storage.Engine.prepared_gtids t.storage in
  List.iter (Storage.Engine.rollback_gtid t.storage) pending;
  (* Step 2: disable client writes. *)
  t.writes_enabled <- false;
  if t.role = Primary then Obs.Metrics.bump t.metrics "server.demotions";
  t.role <- Replica;
  tracef t "%s: demoted (aborted %d in-flight, rolled back %d prepared)" t.id
    aborted_items (List.length pending);
  ignore
    (Sim.Engine.schedule t.engine
       ~delay:(jittered t (Params.abort_in_flight_us +. Params.disable_writes_us))
       (fun () ->
         if t.orchestration_epoch = epoch && not t.crashed then begin
           (* Step 3: rewire binlog -> relay-log. *)
           Binlog.Log_store.switch_mode t.log Binlog.Log_store.Relay;
           ignore
             (Sim.Engine.schedule t.engine
                ~delay:(jittered t (Params.rewire_logs_us +. Params.applier_start_us))
                (fun () ->
                  if t.orchestration_epoch = epoch && not t.crashed then begin
                    Pipeline.reset t.pipeline;
                    Pipeline.notify_commit_index t.pipeline
                      (Raft.Node.commit_index (raft t));
                    start_applier_from_recovery_point t
                  end))
         end))

(* ----- snapshots (engine checkpoints for log compaction, §A.1) ----- *)

(* Produce an engine-checkpoint snapshot at the applied-through
   watermark: every transaction at or below the boundary is committed in
   the engine, so the checkpoint plus the log tail above the boundary is
   the complete replica state.  None when the boundary's term is not
   answerable (nothing applied yet, or the cursor fell behind the
   store's own purge boundary — no consistent snapshot exists). *)
let take_snapshot t =
  let boundary = applied_through t in
  if boundary <= 0 then None
  else
    match Binlog.Log_store.term_at t.log boundary with
    | None -> None
    | Some term ->
      let last = Binlog.Opid.make ~term ~index:boundary in
      let data =
        Storage.Engine.encode_checkpoint (Storage.Engine.checkpoint t.storage)
      in
      Obs.Metrics.bump t.metrics "server.snapshots_taken";
      tracef t "%s: engine checkpoint at %s (%d bytes)" t.id
        (Binlog.Opid.to_string last) (String.length data);
      Some
        (Raft.Snapshot.make ~last
           ~gtids:(Storage.Engine.gtid_executed t.storage)
           ~config:(Raft.Node.config (raft t))
           ~cfg_id:(Raft.Node.config_id (raft t))
           ~data ())

(* Restore the engine from a received, verified checkpoint (the Raft
   node has already rebased the log at the boundary).  In-flight
   prepared transactions belong to the pre-install state and are rolled
   back; the applier is re-pointed at the restored recovery cursor. *)
let install_snapshot t ~snapshot =
  let meta = Raft.Snapshot.meta snapshot in
  let b = Binlog.Opid.index meta.Raft.Snapshot.last in
  ignore (Pipeline.abort_all t.pipeline);
  (* Re-arm immediately: abort_all leaves the pipeline rejecting
     submissions until reset, but post-install tailing resumes through
     the same pipeline on a replica. *)
  Pipeline.reset t.pipeline;
  List.iter (Storage.Engine.rollback_gtid t.storage) (Storage.Engine.prepared_gtids t.storage);
  if Binlog.Opid.index (Storage.Engine.last_committed_opid t.storage) < b then begin
    let ck = Storage.Engine.decode_checkpoint (Raft.Snapshot.data snapshot) in
    Storage.Engine.restore t.storage ck;
    Obs.Metrics.bump t.metrics "server.snapshots_installed";
    tracef t "%s: engine restored from snapshot at %s" t.id
      (Binlog.Opid.to_string meta.Raft.Snapshot.last)
  end
  else
    (* The engine already covers the boundary (e.g. only the log lagged);
       restoring would regress it. *)
    tracef t "%s: snapshot at %s skipped engine restore (already applied)" t.id
      (Binlog.Opid.to_string meta.Raft.Snapshot.last);
  (* Everything through the boundary is applied by construction. *)
  t.exec_index <- max t.exec_index b;
  release_apply_waiters t;
  advance_exec_cursor t;
  if t.role = Replica && not t.crashed then begin
    Applier.stop (applier t);
    start_applier_from_recovery_point t
  end

(* ----- raft wiring (the mysql_raft_repl plugin, §3.1) ----- *)

let make_callbacks t =
  let cb = Raft.Node.default_callbacks () in
  cb.Raft.Node.on_leader_start <- (fun ~noop_index -> begin_promotion t ~noop_index);
  cb.Raft.Node.on_step_down <- (fun () -> begin_demotion t);
  cb.Raft.Node.on_commit_advance <-
    (fun ~commit_index ->
      Pipeline.notify_commit_index t.pipeline commit_index;
      (match t.applier with
      | Some a -> Applier.note_commit_index a commit_index
      | None -> ());
      (* noop/config entries below the commit index count as applied *)
      advance_exec_cursor t);
  cb.Raft.Node.on_entries_appended <-
    (fun entries ~pos ~len ->
      if t.role = Replica then Applier.signal (applier t) entries ~pos ~len;
      advance_exec_cursor t);
  cb.Raft.Node.on_truncated <-
    (fun removed ->
      (* §3.3 demotion step 4: GTIDs of truncated transactions are removed
         from all GTID metadata; prepared copies are rolled back. *)
      let from_index =
        List.fold_left (fun acc e -> min acc (Binlog.Entry.index e)) max_int removed
      in
      List.iter
        (fun e ->
          match Binlog.Entry.gtid e with
          | Some gtid -> Storage.Engine.rollback_gtid t.storage gtid
          | None -> ())
        removed;
      if t.applier <> None then Applier.handle_truncation (applier t) ~from_index;
      (* flushed items waiting on a removed entry fail; a group that
         spanned the point waits only on the entries below it *)
      Pipeline.truncate t.pipeline ~from_index;
      (* the applied-through cursor must not point past the new log end *)
      t.exec_index <- min t.exec_index (from_index - 1);
      tracef t "%s: truncated %d entries from index %d" t.id (List.length removed)
        from_index);
  cb.Raft.Node.on_quiesce <-
    (fun () ->
      tracef t "%s: quiesced for leadership transfer" t.id;
      t.writes_enabled <- false);
  cb.Raft.Node.on_transfer_aborted <-
    (fun ~reason ->
      tracef t "%s: transfer aborted (%s); re-enabling writes" t.id reason;
      if t.role = Primary && Raft.Node.is_leader (raft t) then t.writes_enabled <- true);
  cb.Raft.Node.take_snapshot <- (fun () -> take_snapshot t);
  cb.Raft.Node.install_snapshot <- (fun ~snapshot -> install_snapshot t ~snapshot);
  cb

let make_raft t =
  Raft.Node.create ~metrics:t.metrics ?tracebuf:t.tracebuf ~clock:t.clock
    ~group:t.group ~engine:t.engine ~id:t.id ~region:t.region
    ~send:(fun ~dst msg -> t.send ~dst (Wire.Raft_msg msg))
    ~log:t.log ~callbacks:(make_callbacks t) ~params:t.params.Params.raft
    ~initial_config:t.initial_config ~durable:t.durable ~trace:t.trace ()

(* Group commit across the Raft boundary: a flush group's appends share
   one binlog fsync, and Raft re-checks commit afterwards because its
   own vote only counts up to the durable index. *)
let install_coalesce t =
  Pipeline.set_coalesce t.pipeline (fun f ->
      Binlog.Log_store.with_batched_fsync t.log f;
      Raft.Node.notify_log_synced (raft t))

(* ----- client write path (§3.4) ----- *)

(* A write's outcome goes back to the client session that sent it, or
   to the reply of a local [submit_write]. *)
let send_outcome t (req : Wire.write_request) ~local outcome =
  match local with
  | None -> t.send ~dst:req.client (Wire.Write_reply { write_id = req.write_id; outcome })
  | Some reply -> reply outcome

let reject t req ~local reason =
  Obs.Metrics.incr t.m_writes_rejected;
  send_outcome t req ~local (Wire.Rejected reason)

(* Whether a write may start its prepare; a refused one is answered
   (a crashed server answers nothing: the client times out). *)
let admit t req ~local =
  if t.crashed then false
  else if t.role <> Primary || not t.writes_enabled then begin
    reject t req ~local "server is read-only";
    false
  end
  else if not (Raft.Node.is_leader (raft t)) then begin
    reject t req ~local "not the raft leader";
    false
  end
  else true

(* Prepare in the engine on the client connection's thread, then queue
   the transaction for the pipeline. *)
let prepare_write t (req : Wire.write_request) local =
  if t.crashed || t.role <> Primary || not t.writes_enabled then
    reject t req ~local "demoted during prepare"
  else begin
    let gtid = Binlog.Gtid.make ~source:t.id ~gno:t.next_gno in
    match Storage.Engine.prepare t.storage ~gtid ~table:req.table ~ops:req.ops with
    | exception Storage.Engine.Lock_conflict _ -> reject t req ~local "lock wait conflict"
    | prepared ->
      (* Claim the gno and the xid only once the prepare sticks: burning
         a gno on a lock-conflict reject would leave a permanent hole in
         every gtid_executed set, fragmenting the interval lists that
         each binlog append updates. *)
      let xid = t.next_xid in
      t.next_gno <- t.next_gno + 1;
      t.next_xid <- xid + 1;
      Pipeline.submit t.pipeline
        (Client_write { req; local; gtid; xid; prepared; opid = Binlog.Opid.zero })
  end

(* The prepare event of a session's write: the server and the request
   are the event's two arguments. *)
let prepare_request t req = prepare_write t req None

let submit_write t ~table ~ops ~reply =
  let req = { Wire.write_id = 0; table; ops; client = "" } and local = Some reply in
  if admit t req ~local then
    ignore
      (Sim.Engine.schedule t.engine ~delay:t.params.Params.prepare_us (fun () ->
           prepare_write t req local))

(* Stage 1 for one transaction: returns the Raft index it waits on, or
   -1 when the append failed. *)
let flush_txn t txn =
  match txn with
  | Client_write w -> (
    match
      Raft.Node.client_append (raft t)
        (Binlog.Entry.Transaction
           { gtid = w.gtid; table = w.req.table; ops = w.req.ops; xid = w.xid })
    with
    | Ok opid ->
      w.opid <- opid;
      let index = Binlog.Opid.index opid in
      (* Stamp the WRITESET dependency interval into the entry's
         Gtid_event metadata at flush time, like
         binlog_transaction_dependency_tracking=WRITESET.  The entry was
         only just appended; Raft sends it by reference on future network
         events, so the stamp replicates with it. *)
      let entry = Binlog.Log_store.slot t.log index in
      if entry != Binlog.Log_store.absent then
        Binlog.Entry.set_deps entry
          ~last_committed:
            (Binlog.Writeset.stamp t.writeset ~index ~table:w.req.table ~ops:w.req.ops);
      trace_event t ~stage:"flush" ~term:(Binlog.Opid.term opid) ~index;
      index
    | Error _ -> -1)
  | Relay_txn tk ->
    let entry = Applier.entry tk in
    let index = Binlog.Entry.index entry in
    trace_event t ~stage:"flush" ~term:(Binlog.Entry.term entry) ~index;
    index
  | Relay_marker tk -> Binlog.Entry.index (Applier.entry tk)
  | Binlog_rotate -> (
    match
      Raft.Node.client_append (raft t) (Binlog.Entry.Rotate_marker { next_file = "next" })
    with
    | Ok opid -> Binlog.Opid.index opid
    | Error _ -> -1)

(* Stage 3 for one transaction (or its failure). *)
let finish_txn t txn ~ok =
  match txn with
  | Client_write w ->
    if ok && Storage.Engine.live w.prepared then begin
      Storage.Engine.commit_prepared t.storage w.prepared ~opid:w.opid;
      Obs.Metrics.incr t.m_writes_committed;
      trace_event t ~stage:"engine-commit" ~term:(Binlog.Opid.term w.opid)
        ~index:(Binlog.Opid.index w.opid);
      send_outcome t w.req ~local:w.local (Wire.Committed { gtid = w.gtid })
    end
    else begin
      Storage.Engine.rollback_prepared t.storage w.prepared;
      reject t w.req ~local:w.local "aborted (role change)"
    end
  | Relay_txn tk ->
    (* The prepared copy may have been rolled back by a log truncation
       while this item waited for consensus; a truncated transaction
       must not commit. *)
    let entry = Applier.entry tk and prepared = Applier.prepared tk in
    if ok && Storage.Engine.live prepared then begin
      Storage.Engine.commit_prepared t.storage prepared ~opid:(Binlog.Entry.opid entry);
      trace_event t ~stage:"engine-commit" ~term:(Binlog.Entry.term entry)
        ~index:(Binlog.Entry.index entry);
      Applier.finished tk ~ok:true
    end
    else begin
      Storage.Engine.rollback_prepared t.storage prepared;
      Applier.finished tk ~ok:false
    end
  | Relay_marker tk ->
    (match Binlog.Entry.payload (Applier.entry tk) with
    | Binlog.Entry.Rotate_marker _ -> if ok then Binlog.Log_store.rotate t.log
    | Binlog.Entry.Transaction _ | Binlog.Entry.Noop | Binlog.Entry.Config_change _ -> ());
    Applier.finished tk ~ok
  | Binlog_rotate -> if ok then Binlog.Log_store.rotate t.log

let make_pipeline t =
  Pipeline.create ~metrics:t.metrics ~engine:t.engine ~params:t.params
    ~is_primary_path:true ~flush:(flush_txn t) ~finish:(finish_txn t) ()

(* ----- read path (consistency tiers, Read.Service) ----- *)

(* Reads are served from the local engine on any MySQL role (Table 1:
   leader, follower and learner all serve reads; replicas may lag). *)
let read t ~table ~key =
  if t.crashed then Error "server is down"
  else Ok (Storage.Engine.get t.storage ~table ~key)

(* The ops closures capture [t], not the current Raft node: [restart]
   swaps in a fresh node and the service must follow it. *)
let make_read_service t =
  let ops =
    {
      (* The service measures staleness and retry windows on the host's
         clock: a drifting clock misjudges anchor age exactly as a real
         bounded-staleness implementation would. *)
      Read.Service.now = (fun () -> Sim.Clock.now t.clock);
      schedule = (fun ~delay f -> Sim.Clock.schedule t.clock ~delay f);
      read_index = (fun k -> Raft.Node.remote_read_index (raft t) k);
      lease_read_index = (fun () -> Raft.Node.lease_read_index (raft t));
      staleness_anchor = (fun () -> Raft.Node.staleness_anchor (raft t));
      applied_index = (fun () -> applied_through t);
      wait_applied = (fun index k -> wait_applied t index k);
      wait_gtid = (fun gtid ~timeout k -> wait_for_executed_gtid t gtid ~timeout ~k);
      get = (fun ~table ~key -> Storage.Engine.get t.storage ~table ~key);
    }
  in
  let params =
    {
      Read.Service.default_params with
      retry_hint = t.params.Params.raft.Raft.Node.heartbeat_interval;
    }
  in
  Read.Service.create ~params ~metrics:t.metrics ~ops ()

let read_service t =
  match t.read_service with
  | Some s -> s
  | None ->
    let s = make_read_service t in
    t.read_service <- Some s;
    s

let apply k outcome = k outcome

(* Serve one read at the requested consistency level.  [k] fires exactly
   once unless the server is down (then the client times out). *)
let serve_read t ~level ~table ~key k =
  if t.crashed then ()
  else Read.Service.serve (read_service t) ~level ~table ~key apply k

(* The reply to a client's [Read_request]: the request itself is the
   read's context, so a read answered at dispatch builds no closure. *)
let reply_read t (req : Wire.read_request) outcome =
  if not t.crashed then
    t.send ~dst:req.read_client (Wire.Read_reply { read_id = req.read_id; outcome })

(* ----- log maintenance (§A.1) ----- *)

(* FLUSH BINARY LOGS on the primary: the rotate event goes through the
   commit pipeline and Raft; the file switch happens once it is
   consensus committed. *)
let flush_binary_logs t =
  if t.role <> Primary || not (Raft.Node.is_leader (raft t)) then
    Error "FLUSH BINARY LOGS: not the primary"
  else begin
    Pipeline.submit t.pipeline Binlog_rotate;
    Ok ()
  end

(* PURGE BINARY LOGS: MySQL only purges by consulting Raft's
   region-watermark heuristic (§A.1), so severely lagging out-of-region
   members can still request old files.  Whole closed files whose last
   entry is at or below the safe index are dropped; returns the number of
   files purged.

   The local applier's watermark floors the purge: entries the engine
   has not applied yet are the only replayable copy of that data on this
   host, and any future engine-checkpoint snapshot must cover everything
   purged — a checkpoint can only cover what has been applied. *)
let purge_binary_logs t =
  let safe = min (Raft.Node.safe_purge_index (raft t)) (applied_through t) in
  let rec boundary purged = function
    | (name, first, last, closed) :: rest ->
      if closed && first > 0 && last <= safe && rest <> [] then boundary (purged + 1) rest
      else (purged, Some name)
    | [] -> (purged, None)
  in
  match boundary 0 (Binlog.Log_store.file_ranges t.log) with
  | 0, _ | _, None -> 0
  | purged, Some keep_from ->
    Binlog.Log_store.purge_to t.log ~file:keep_from;
    tracef t "%s: purged %d binlog files (safe index %d)" t.id purged safe;
    purged

(* ----- crash / restart ----- *)

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    t.orchestration_epoch <- t.orchestration_epoch + 1;
    Raft.Node.stop (raft t);
    Applier.stop (applier t);
    ignore (Pipeline.abort_all t.pipeline);
    (* Fail parked readers: their sessions died with the server. *)
    t.apply_waiters <- [];
    t.min_apply_waiter <- max_int;
    Hashtbl.iter
      (fun _ ws ->
        List.iter
          (fun w ->
            if not !(w.gw_done) then begin
              w.gw_done := true;
              Sim.Engine.cancel w.gw_timer;
              w.gw_k false
            end)
          ws)
      t.gtid_waiters;
    Hashtbl.reset t.gtid_waiters;
    (* In-memory state is gone; prepared transactions will be rolled back
       by recovery at restart (§A.2). *)
    t.writes_enabled <- false;
    t.role <- Replica;
    tracef t "%s: CRASHED" t.id
  end

let restart t =
  if t.crashed then begin
    t.crashed <- false;
    t.orchestration_epoch <- t.orchestration_epoch + 1;
    let rolled_back = Storage.Engine.crash_recover t.storage in
    (* Log recovery: an unsynced binlog tail may be gone after the crash
       (torn-tail fault); Raft never acked those entries, so losing them
       is safe — the leader re-replicates them. *)
    let torn = Binlog.Log_store.crash_recover_log t.log in
    (* CRC sweep: unlike the torn tail, bit rot can hit entries this node
       already acked toward commit.  Truncate from the first corrupt
       entry (normal replication re-fetches the suffix); the log drops
       the GTIDs of the dropped transactions, like any truncation. *)
    let corruption = Binlog.Log_store.scan_for_corruption t.log in
    (match corruption with
    | Some r ->
      tracef t "%s: recovery found corrupt entry at index %d; truncated %d entries"
        t.id r.Binlog.Log_store.cr_first_corrupt
        (List.length r.Binlog.Log_store.cr_dropped)
    | None -> ());
    Binlog.Writeset.clear t.writeset;
    t.pipeline <- make_pipeline t;
    Binlog.Log_store.switch_mode t.log Binlog.Log_store.Relay;
    t.raft <- Some (make_raft t);
    install_coalesce t;
    (* The dropped suffix may contain committed data: fence this node's
       votes below the pre-truncation tail until replication restores it,
       so no quorum ignorant of those entries can form. *)
    (match corruption with
    | Some r ->
      Raft.Node.set_vote_floor (raft t) r.Binlog.Log_store.cr_pre_truncation_tail
    | None -> ());
    Pipeline.notify_commit_index t.pipeline (Raft.Node.commit_index (raft t));
    start_applier_from_recovery_point t;
    (* Rebuild the applied-through cursor: the crash may have torn
       entries the old cursor had passed.  It cannot be re-walked from
       index 1 on a compacted log — the purged prefix has no entries to
       scan — so restart it from what the engine provably holds: the
       last committed transaction, and the purge boundary (purging below
       the applied watermark is refused, so the purged prefix was
       applied). *)
    t.exec_index <-
      max
        (Binlog.Opid.index (Storage.Engine.last_committed_opid t.storage))
        (Binlog.Log_store.purged_below t.log - 1);
    advance_exec_cursor t;
    tracef t "%s: restarted (recovery rolled back %d prepared txns, lost %d torn log entries)"
      t.id rolled_back (List.length torn)
  end

(* ----- message handling ----- *)

let handle_message t ~src msg =
  if not t.crashed then
    match msg with
    | Wire.Raft_msg m -> Raft.Node.handle_message (raft t) ~src m
    | Wire.Write_request req ->
      let floor =
        match Hashtbl.find t.client_write_floor req.client with
        | floor -> floor
        | exception Not_found -> 0
      in
      if req.write_id <= floor then
        (* duplicated (or artifact-reordered) frame: already executed or
           superseded — never re-execute; the client's timeout covers the
           no-reply case *)
        ()
      else begin
        Hashtbl.replace t.client_write_floor req.client req.write_id;
        if admit t req ~local:None then
          ignore
            (Sim.Engine.schedule_call t.engine ~delay:t.params.Params.prepare_us
               prepare_request t req)
      end
    | Wire.Read_request req ->
      Read.Service.serve (read_service t) ~level:req.level ~table:req.read_table
        ~key:req.key t.read_reply req
    | Wire.Write_reply _ | Wire.Read_reply _ -> () (* servers don't issue requests *)

(* ----- construction ----- *)

let create ?metrics ?tracebuf ?clock ?(group = 0) ~engine ~id ~region ~replicaset
    ~send ~discovery ~params ~initial_config ~trace () =
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create ~node:id () in
  let clock = match clock with Some c -> c | None -> Sim.Clock.create ~engine () in
  let t =
    {
      id;
      region;
      group;
      replicaset;
      engine;
      clock;
      trace;
      params;
      send;
      discovery;
      initial_config;
      storage = Storage.Engine.create ();
      log = Binlog.Log_store.create ~metrics ~mode:Binlog.Log_store.Relay ();
      durable = Raft.Node.fresh_durable ();
      writeset = Binlog.Writeset.create ~capacity:Params.writeset_history_size;
      raft = None;
      pipeline =
        (* replaced below: the pipeline's stage functions need [t] *)
        Pipeline.create ~engine ~params ~is_primary_path:true
          ~flush:(fun _ -> -1)
          ~finish:(fun _ ~ok:_ -> ())
          ();
      applier = None;
      role = Replica;
      writes_enabled = false;
      crashed = false;
      next_gno = 1;
      next_xid = 1;
      orchestration_epoch = 0;
      rng = Sim.Rng.split (Sim.Engine.rng engine);
      metrics;
      m_writes_committed = Obs.Metrics.counter metrics "server.writes_committed";
      m_writes_rejected = Obs.Metrics.counter metrics "server.writes_rejected";
      tracebuf;
      exec_index = 0;
      apply_waiters = [];
      min_apply_waiter = max_int;
      gtid_waiters = Hashtbl.create 32;
      read_service = None;
      read_reply = (fun _ _ -> ());
      client_write_floor = Hashtbl.create 16;
    }
  in
  t.pipeline <- make_pipeline t;
  t.read_reply <- reply_read t;
  install_commit_listener t;
  t.applier <-
    Some
      (Applier.create ~metrics ~engine ~params ~process:(applier_process t) ());
  t.raft <- Some (make_raft t);
  install_coalesce t;
  start_applier_from_recovery_point t;
  t

let describe t =
  Printf.sprintf "%s [%s%s] %s | engine: %d txns | %s" t.id (role_to_string t.role)
    (if t.writes_enabled then ",rw" else ",ro")
    (Raft.Node.describe (raft t))
    (Storage.Engine.committed_count t.storage)
    (Binlog.Log_store.describe t.log)
