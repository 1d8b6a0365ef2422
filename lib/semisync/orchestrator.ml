(* The prior setup's external control plane: health monitoring, dead
   primary failover, and graceful promotion, all orchestrated from
   *outside* the database (§1.1) — the design whose slow, heavy-tailed
   remediation Table 2 contrasts with Raft's in-server failover.

   The orchestrator is itself a network participant: it detects a dead
   primary by pinging it over the simulated network, so partitions and
   crashes look exactly like they would to real automation. *)

type ctx = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  rng : Sim.Rng.t;
  discovery : Myraft.Service_discovery.t;
  replicaset : string;
  orchestrator_id : string;
  send : dst:string -> Wire.t -> unit;
  servers : unit -> Server.t list;
  ackers : unit -> Acker.t list;
  (* shipping peers (id, is_acker) a given primary should serve *)
  peers_for : string -> (string * bool) list;
}

type t = {
  ctx : ctx;
  mutable current_primary : string;
  mutable misses : int;
  mutable next_ping : int;
  pending_pings : (int, Sim.Engine.handle) Hashtbl.t;
  mutable in_failover : bool;
  mutable monitoring : bool;
  mutable failovers : int;
  mutable promotions : int;
}

let tracef t fmt = Sim.Trace.record t.ctx.trace ~tag:"orchestrator" fmt

let current_primary t = t.current_primary

let failovers t = t.failovers

let promotions t = t.promotions

let create ctx ~initial_primary =
  {
    ctx;
    current_primary = initial_primary;
    misses = 0;
    next_ping = 1;
    pending_pings = Hashtbl.create 8;
    in_failover = false;
    monitoring = false;
    failovers = 0;
    promotions = 0;
  }

let server t id = List.find (fun s -> Server.id s = id) (t.ctx.servers ())

let live_replicas t =
  List.filter
    (fun s ->
      Server.id s <> t.current_primary
      && (not (Server.is_crashed s))
      && Server.role s = Server.Replica)
    (t.ctx.servers ())

(* ----- repointing helpers ----- *)

let repoint_everyone t ~new_primary =
  List.iter
    (fun s -> if Server.id s <> new_primary then Server.repoint s ~new_upstream:new_primary)
    (t.ctx.servers ());
  List.iter (fun a -> Acker.repoint a ~new_upstream:new_primary) (t.ctx.ackers ())

let publish t ~new_primary =
  Myraft.Service_discovery.publish_primary t.ctx.discovery ~replicaset:t.ctx.replicaset
    ~primary:new_primary ~delay:Params.publish_delay

(* ----- dead primary failover ----- *)

let rec failover_catchup_then_promote t ~target ~on_done =
  let target_server = server t target in
  if Server.applied_seq target_server >= Server.last_seq target_server then begin
    Server.start_as_primary target_server ~peers:(t.ctx.peers_for target);
    repoint_everyone t ~new_primary:target;
    (* Sequential CHANGE MASTER TO on every other replica. *)
    let others = List.length (live_replicas t) in
    let repoint_total = float_of_int others *. Params.repoint_delay in
    ignore
      (Sim.Engine.schedule t.ctx.engine ~delay:repoint_total (fun () ->
           publish t ~new_primary:target;
           t.current_primary <- target;
           t.failovers <- t.failovers + 1;
           t.in_failover <- false;
           t.misses <- 0;
           tracef t "failover complete: %s is primary" target;
           on_done ()))
  end
  else
    ignore
      (Sim.Engine.schedule t.ctx.engine ~delay:Params.catchup_poll (fun () ->
           failover_catchup_then_promote t ~target ~on_done))

let start_failover t ~on_done =
  if not t.in_failover then begin
    t.in_failover <- true;
    tracef t "primary %s declared dead; starting failover" t.current_primary;
    (* 1. distributed lock, 2. per-replica position queries, 3. the
       heavy-tailed automation overhead (worker queues, retries). *)
    let lock =
      Sim.Rng.uniform t.ctx.rng ~lo:Params.lock_delay_lo ~hi:Params.lock_delay_hi
    in
    let queries =
      float_of_int (List.length (live_replicas t)) *. Params.position_query_delay
    in
    let remediation =
      Sim.Rng.lognormal t.ctx.rng ~mu:Params.remediation_mu
        ~sigma:Params.remediation_sigma
    in
    ignore
      (Sim.Engine.schedule t.ctx.engine ~delay:(lock +. queries +. remediation) (fun () ->
           match
             List.sort
               (fun a b -> compare (Server.last_seq b) (Server.last_seq a))
               (live_replicas t)
           with
           | [] ->
             tracef t "failover aborted: no live replica";
             t.in_failover <- false;
             on_done ()
           | best :: _ ->
             tracef t "failover target: %s (seq %d)" (Server.id best) (Server.last_seq best);
             failover_catchup_then_promote t ~target:(Server.id best) ~on_done))
  end

(* ----- health monitoring ----- *)

let handle_message t ~src:_ msg =
  match msg with
  | Wire.Pong { ping_id } -> (
    match Hashtbl.find_opt t.pending_pings ping_id with
    | Some timeout_handle ->
      Sim.Engine.cancel timeout_handle;
      Hashtbl.remove t.pending_pings ping_id;
      t.misses <- 0
    | None -> ())
  | Wire.Replicate _ | Wire.Ack _ | Wire.Write_request _ | Wire.Write_reply _
  | Wire.Read_request _ | Wire.Read_reply _ | Wire.Ping _ ->
    ()

let rec monitor_tick t =
  if t.monitoring then begin
    if not t.in_failover then begin
      let ping_id = t.next_ping in
      t.next_ping <- t.next_ping + 1;
      let timeout_handle =
        Sim.Engine.schedule t.ctx.engine ~delay:Params.ping_timeout (fun () ->
            Hashtbl.remove t.pending_pings ping_id;
            t.misses <- t.misses + 1;
            tracef t "ping %d to %s timed out (%d/%d)" ping_id t.current_primary t.misses
              Params.confirmations;
            if t.misses >= Params.confirmations then
              start_failover t ~on_done:(fun () -> ()))
      in
      Hashtbl.replace t.pending_pings ping_id timeout_handle;
      t.ctx.send ~dst:t.current_primary (Wire.Ping { ping_id })
    end;
    ignore
      (Sim.Engine.schedule t.ctx.engine ~delay:Params.poll_interval (fun () ->
           monitor_tick t))
  end

let start_monitoring t =
  if not t.monitoring then begin
    t.monitoring <- true;
    monitor_tick t
  end

(* ----- graceful promotion ----- *)

let rec promotion_wait_catchup t ~old_primary ~target ~on_done =
  let old_server = server t old_primary and target_server = server t target in
  if
    (* the old primary's pipeline must drain (in-flight commits finish)
       and the target must have received and applied the full log *)
    Server.pipeline_in_flight old_server = 0
    && Server.last_seq target_server >= Server.last_seq old_server
    && Server.applied_seq target_server >= Server.last_seq old_server
  then begin
    let overhead =
      Sim.Rng.lognormal t.ctx.rng ~mu:Params.promotion_overhead_mu
        ~sigma:Params.promotion_overhead_sigma
    in
    ignore
      (Sim.Engine.schedule t.ctx.engine
         ~delay:(overhead +. Params.promotion_step_delay)
         (fun () ->
           Server.demote old_server ~new_upstream:(Some target);
           Server.start_as_primary (server t target) ~peers:(t.ctx.peers_for target);
           repoint_everyone t ~new_primary:target;
           publish t ~new_primary:target;
           t.current_primary <- target;
           t.promotions <- t.promotions + 1;
           tracef t "graceful promotion complete: %s is primary" target;
           on_done ()))
  end
  else
    ignore
      (Sim.Engine.schedule t.ctx.engine ~delay:Params.catchup_poll (fun () ->
           promotion_wait_catchup t ~old_primary ~target ~on_done))

let graceful_promotion t ~target ~on_done =
  if t.in_failover then Error "failover in progress"
  else if target = t.current_primary then Error "target is already primary"
  else begin
    let old_primary = t.current_primary in
    tracef t "graceful promotion %s -> %s" old_primary target;
    (* Quiesce the old primary first: client downtime starts here. *)
    Server.disable_writes (server t old_primary);
    ignore
      (Sim.Engine.schedule t.ctx.engine ~delay:Params.promotion_step_delay
         (fun () -> promotion_wait_catchup t ~old_primary ~target ~on_done));
    Ok ()
  end
