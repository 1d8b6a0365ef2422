(* A logtailer: a Raft witness — a full voter with a replication log but
   no storage engine and no database (§2.1, Table 1).

   In-region logtailers are what make FlexiRaft's small data-commit
   quorums durable: the leader's self-vote plus one logtailer ack commits
   a transaction.  Because a logtailer often has the longest log, Raft's
   longest-log-wins voting can elect it as a *temporary* leader; its
   leader-start orchestration immediately transfers leadership to the
   most caught-up MySQL voter (§2.2 failover). *)

type t = {
  id : string;
  region : string;
  group : int; (* multi-Raft group tag; 0 outside shard mode *)
  engine : Sim.Engine.t;
  clock : Sim.Clock.t; (* local clock: Raft timers run on it *)
  trace : Sim.Trace.t;
  params : Params.t;
  send : dst:string -> Wire.t -> unit;
  log : Binlog.Log_store.t;
  durable : Raft.Node.durable;
  initial_config : Raft.Types.config;
  mutable raft : Raft.Node.t option;
  mutable crashed : bool;
  mutable interim_leaderships : int;
  metrics : Obs.Metrics.t;
  tracebuf : Obs.Tracebuf.t option;
}

let id t = t.id

let clock t = t.clock

let raft t = match t.raft with Some r -> r | None -> failwith (t.id ^ ": raft not wired")

let log t = t.log

let is_crashed t = t.crashed

let metrics t = t.metrics

let interim_leaderships t = t.interim_leaderships

let tracef t fmt = Sim.Trace.record t.trace ~tag:"logtailer" fmt

(* When a logtailer wins an election it hands leadership to a MySQL
   server: wait for a MySQL voter to be fully caught up, then run a
   regular graceful transfer.  After a bounded wait, transfer to the most
   caught-up MySQL voter regardless. *)
let orchestrate_handoff t =
  t.interim_leaderships <- t.interim_leaderships + 1;
  tracef t "%s: elected as interim leader; handing off to a MySQL server" t.id;
  let deadline = Sim.Engine.now t.engine +. (5.0 *. Sim.Engine.s) in
  let rec attempt () =
    if (not t.crashed) && Raft.Node.is_leader (raft t) then begin
      let r = raft t in
      let cfg = Raft.Node.config r in
      let last = Binlog.Opid.index (Raft.Node.last_opid r) in
      let mysql_voters =
        List.filter
          (fun m -> m.Raft.Types.voter && m.Raft.Types.kind = Raft.Types.Mysql_server)
          cfg.Raft.Types.members
      in
      let ranked =
        List.filter_map
          (fun m ->
            Option.map
              (fun match_index -> (match_index, m.Raft.Types.id))
              (Raft.Node.match_index_of r ~peer:m.Raft.Types.id))
          mysql_voters
        |> List.sort (fun a b -> compare b a)
      in
      match ranked with
      | (best_match, best) :: _
        when best_match >= last || Sim.Engine.now t.engine >= deadline -> (
        match Raft.Node.transfer_leadership r ~target:best with
        | Ok () -> ()
        | Error reason ->
          tracef t "%s: handoff transfer failed (%s); retrying" t.id reason;
          ignore (Sim.Engine.schedule t.engine ~delay:(100.0 *. Sim.Engine.ms) attempt))
      | _ -> ignore (Sim.Engine.schedule t.engine ~delay:(50.0 *. Sim.Engine.ms) attempt)
    end
  in
  attempt ()

let make_callbacks t =
  let cb = Raft.Node.default_callbacks () in
  cb.Raft.Node.on_leader_start <- (fun ~noop_index:_ -> orchestrate_handoff t);
  cb

let make_raft t =
  Raft.Node.create ~metrics:t.metrics ?tracebuf:t.tracebuf ~clock:t.clock
    ~group:t.group ~engine:t.engine ~id:t.id ~region:t.region
    ~send:(fun ~dst msg -> t.send ~dst (Wire.Raft_msg msg))
    ~log:t.log ~callbacks:(make_callbacks t) ~params:t.params.Params.raft
    ~initial_config:t.initial_config ~durable:t.durable ~trace:t.trace ()

let create ?metrics ?tracebuf ?clock ?(group = 0) ~engine ~id ~region ~send ~params
    ~initial_config ~trace () =
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create ~node:id () in
  let clock = match clock with Some c -> c | None -> Sim.Clock.create ~engine () in
  let t =
    {
      id;
      region;
      group;
      engine;
      clock;
      trace;
      params;
      send;
      log = Binlog.Log_store.create ~metrics ~mode:Binlog.Log_store.Relay ();
      durable = Raft.Node.fresh_durable ();
      initial_config;
      raft = None;
      crashed = false;
      interim_leaderships = 0;
      metrics;
      tracebuf;
    }
  in
  t.raft <- Some (make_raft t);
  t

let handle_message t ~src msg =
  if not t.crashed then
    match msg with
    | Wire.Raft_msg m -> Raft.Node.handle_message (raft t) ~src m
    | Wire.Write_request { write_id; client; _ } ->
      t.send ~dst:client
        (Wire.Write_reply { write_id; outcome = Wire.Rejected "logtailer has no database" })
    | Wire.Read_request { read_id; read_client; _ } ->
      (* Logtailers hold logs, not tables: no engine to read from. *)
      t.send ~dst:read_client
        (Wire.Read_reply
           {
             read_id;
             outcome =
               Wire.Read_rejected
                 { reason = "logtailer has no database"; retry_after = None };
           })
    | Wire.Write_reply _ | Wire.Read_reply _ -> ()

let crash t =
  if not t.crashed then begin
    t.crashed <- true;
    Raft.Node.stop (raft t);
    tracef t "%s: CRASHED" t.id
  end

let restart t =
  if t.crashed then begin
    t.crashed <- false;
    let torn = Binlog.Log_store.crash_recover_log t.log in
    let corruption = Binlog.Log_store.scan_for_corruption t.log in
    t.raft <- Some (make_raft t);
    (match corruption with
    | Some r ->
      tracef t "%s: recovery truncated %d corrupt-suffix entries from index %d" t.id
        (List.length r.Binlog.Log_store.cr_dropped)
        r.Binlog.Log_store.cr_first_corrupt;
      Raft.Node.set_vote_floor (raft t) r.Binlog.Log_store.cr_pre_truncation_tail
    | None -> ());
    tracef t "%s: restarted (lost %d torn log entries)" t.id (List.length torn)
  end
