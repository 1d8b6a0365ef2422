(* myraft_cli — drive MyRaft scenarios from the command line.

     myraft_cli demo                # quickstart ring + writes
     myraft_cli failover --seed 3   # crash the primary, report downtime
     myraft_cli promote             # graceful transfer, report downtime
     myraft_cli status              # print a ring and its Table-1 roles
     myraft_cli read                # tour the four read consistency levels *)

open Cmdliner

let s = Sim.Engine.s
let ms = Sim.Engine.ms

let default_members () =
  [
    Myraft.Cluster.mysql "mysql1" "r1";
    Myraft.Cluster.logtailer "lt1a" "r1";
    Myraft.Cluster.logtailer "lt1b" "r1";
    Myraft.Cluster.mysql "mysql2" "r2";
    Myraft.Cluster.logtailer "lt2a" "r2";
    Myraft.Cluster.logtailer "lt2b" "r2";
  ]

let make_cluster ~seed ~echo =
  let cluster =
    Myraft.Cluster.create ~seed ~echo_trace:echo ~replicaset:"cli"
      ~members:(default_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  cluster

let seed_arg =
  Arg.(value & opt int 7 & info [ "seed" ] ~docv:"SEED" ~doc:"Simulation seed.")

let trace_arg =
  Arg.(value & flag & info [ "trace" ] ~doc:"Echo the simulation trace.")

let with_load cluster f =
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"cli-load" ~region:"r1"
      ~client_latency:(200.0 *. Sim.Engine.us) ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:200.0;
  let result = f () in
  Workload.Generator.stop gen;
  Printf.printf "\nworkload: %s\n" (Workload.Generator.summary gen);
  result

let demo seed echo =
  let cluster = make_cluster ~seed ~echo in
  with_load cluster (fun () -> Myraft.Cluster.run_for cluster (5.0 *. s));
  Printf.printf "\nring after 5s of traffic:\n%s\n" (Myraft.Cluster.describe cluster)

let failover seed echo =
  let cluster = make_cluster ~seed ~echo in
  let probe = Myraft.Availability.start cluster ~client_id:"probe" in
  with_load cluster (fun () ->
      Myraft.Cluster.run_for cluster (2.0 *. s);
      let crash_at = Myraft.Cluster.now cluster in
      Printf.printf ">>> crashing mysql1\n%!";
      Myraft.Cluster.crash cluster "mysql1";
      ignore
        (Myraft.Cluster.run_until cluster ~timeout:(60.0 *. s) (fun () ->
             match Myraft.Cluster.primary cluster with
             | Some srv -> Myraft.Server.id srv <> "mysql1"
             | None -> false));
      Myraft.Cluster.run_for cluster (3.0 *. s);
      let downtime =
        Myraft.Availability.max_downtime probe ~start_time:crash_at
          ~end_time:(Myraft.Cluster.now cluster)
      in
      Printf.printf "\nmeasured failover downtime: %.0f ms\n" (downtime /. ms));
  Printf.printf "\n%s\n" (Myraft.Cluster.describe cluster)

let promote seed echo =
  let cluster = make_cluster ~seed ~echo in
  let probe = Myraft.Availability.start cluster ~client_id:"probe" in
  with_load cluster (fun () ->
      Myraft.Cluster.run_for cluster (2.0 *. s);
      let start_at = Myraft.Cluster.now cluster in
      Printf.printf ">>> transferring leadership to mysql2\n%!";
      (match Myraft.Cluster.transfer_leadership cluster ~target:"mysql2" with
      | Ok () -> ()
      | Error e -> failwith e);
      ignore
        (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
             match Myraft.Cluster.primary cluster with
             | Some srv -> Myraft.Server.id srv = "mysql2"
             | None -> false));
      Myraft.Cluster.run_for cluster (2.0 *. s);
      let downtime =
        Myraft.Availability.max_downtime probe ~start_time:start_at
          ~end_time:(Myraft.Cluster.now cluster)
      in
      Printf.printf "\nmeasured promotion downtime: %.0f ms\n" (downtime /. ms));
  Printf.printf "\n%s\n" (Myraft.Cluster.describe cluster)

let status seed echo =
  let cluster = make_cluster ~seed ~echo in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  Printf.printf "%s\n\n%s" (Myraft.Cluster.describe cluster) (Myraft.Roles.render ())

(* Tour the consistency-tiered read path: seed one row, then read it
   back at every level from the primary and from a remote follower;
   finally isolate the follower so bounded-staleness reads start
   rejecting while eventual reads keep serving. *)
let read_demo seed echo =
  let cluster = make_cluster ~seed ~echo in
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"cli-read" ~region:"r2"
      ~client_latency:(200.0 *. Sim.Engine.us) ()
  in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  let settled = ref None in
  Workload.Generator.issue_op
    ~k:(fun ok -> settled := Some ok)
    gen ~table:"demo" ~key:"answer" ~value_size:42;
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(10.0 *. s) (fun () -> !settled <> None));
  Printf.printf "seeded demo/answer (committed: %b)\n"
    (match !settled with Some true -> true | _ -> false);
  let levels =
    [
      Read.Level.Linearizable;
      Read.Level.Read_your_writes None;
      Read.Level.Bounded_staleness (50.0 *. ms);
      Read.Level.Eventual;
    ]
  in
  let probe target =
    Printf.printf "\nreads served by %s:\n" target;
    List.iter
      (fun level ->
        let t0 = Myraft.Cluster.now cluster in
        let result = ref None in
        Workload.Generator.issue_read
          ~k:(fun o -> result := Some o)
          ~level ~target gen ~table:"demo" ~key:"answer";
        ignore
          (Myraft.Cluster.run_until cluster ~timeout:(10.0 *. s) (fun () ->
               !result <> None));
        let dt = Myraft.Cluster.now cluster -. t0 in
        let shown =
          match !result with
          | Some (Workload.Backend.Read_ok (Some v)) ->
            Printf.sprintf "value (%d bytes)" (String.length v)
          | Some (Workload.Backend.Read_ok None) -> "null (no row)"
          | Some (Workload.Backend.Read_rejected { reason; retry_after }) ->
            Printf.sprintf "rejected: %s%s" reason
              (match retry_after with
              | Some d -> Printf.sprintf " (retry in %.1f ms)" (d /. ms)
              | None -> "")
          | None -> "no reply"
        in
        Printf.printf "  %-12s %-48s %8.2f ms\n" (Read.Level.to_string level) shown
          (dt /. ms))
      levels
  in
  let mysqls = Myraft.Cluster.mysql_ids cluster in
  List.iter probe mysqls;
  (match List.filter (fun id -> Some id <> Myraft.Cluster.raft_leader cluster) mysqls with
  | follower :: _ ->
    Printf.printf
      "\n>>> cutting r1 <-> r2: %s can no longer prove freshness or reach the leader\n"
      follower;
    Sim.Network.cut_regions (Myraft.Cluster.network cluster) "r1" "r2";
    Myraft.Cluster.run_for cluster (1.0 *. s);
    probe follower
  | [] -> ());
  let contains line sub =
    let n = String.length line and m = String.length sub in
    let rec go i = i + m <= n && (String.sub line i m = sub || go (i + 1)) in
    go 0
  in
  let snap = Myraft.Cluster.metrics_snapshot cluster in
  Printf.printf "\nread-path metrics:\n";
  List.iter
    (fun line ->
      if contains line "read." || contains line "readindex" || contains line "lease" then
        Printf.printf "%s\n" line)
    (String.split_on_char '\n' (Obs.Metrics.render snap))

(* Serial vs parallel replica apply, side by side: run the same traffic
   with a deliberately expensive apply step (so one lane cannot keep up
   with the primary's commit rate), sampling the remote follower's lane
   occupancy and replication lag each second. *)
let apply_demo seed echo =
  let run workers =
    let params =
      {
        Myraft.Params.default with
        Myraft.Params.applier_workers = workers;
        apply_per_txn_us = 300.0;
      }
    in
    let cluster =
      Myraft.Cluster.create ~seed ~echo_trace:echo ~params ~replicaset:"cli"
        ~members:(default_members ()) ()
    in
    Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
    let follower =
      match Myraft.Cluster.server cluster "mysql2" with
      | Some srv -> srv
      | None -> failwith "mysql2 missing"
    in
    let applier = Myraft.Server.applier follower in
    let backend = Workload.Backend.myraft cluster in
    let gen =
      Workload.Generator.create ~backend ~client_id:"cli-apply" ~region:"r1"
        ~client_latency:(200.0 *. Sim.Engine.us) ()
    in
    Printf.printf "\n--- %d worker lane%s (apply cost 300 us/txn) ---\n" workers
      (if workers = 1 then "" else "s");
    Printf.printf "  %-6s %10s %10s %10s %12s\n" "t_s" "applied" "lag" "busy" "dep_stalls";
    Workload.Generator.start_closed_loop gen ~threads:16;
    let lag () =
      let commit =
        match Myraft.Cluster.raft_of cluster "mysql1" with
        | Some raft -> Raft.Node.commit_index raft
        | None -> 0
      in
      commit - Myraft.Server.applied_through follower
    in
    let final_lag = ref 0 in
    for tick = 1 to 6 do
      Myraft.Cluster.run_for cluster (1.0 *. s);
      final_lag := lag ();
      Printf.printf "  %-6d %10d %10d %6d/%-3d %12d\n%!" tick
        (Myraft.Applier.applied_txns applier)
        !final_lag
        (Myraft.Applier.busy_workers applier)
        (Myraft.Applier.workers applier)
        (Myraft.Applier.dep_stalls applier)
    done;
    Workload.Generator.stop gen;
    (Workload.Generator.stats gen).Workload.Generator.committed,
    Myraft.Applier.applied_txns applier, !final_lag
  in
  let committed1, applied1, lag1 = run 1 in
  let committed4, applied4, lag4 = run 4 in
  Printf.printf
    "\nserial:   %d committed on the primary, %d applied on mysql2, final lag %d\n"
    committed1 applied1 lag1;
  Printf.printf
    "parallel: %d committed on the primary, %d applied on mysql2, final lag %d\n"
    committed4 applied4 lag4;
  Printf.printf
    "writeset scheduling let 4 lanes apply %.1fx the serial rate on the same traffic\n"
    (float_of_int applied4 /. float_of_int (max applied1 1))

let write_metrics_json path snap =
  let oc = open_out path in
  output_string oc (Obs.Metrics.to_json snap);
  output_char oc '\n';
  close_out oc

(* Run traffic for a few seconds, then dump the cluster-wide metrics
   snapshot (every node's registry merged, plus net.* from the network)
   and the tail of the OpId-correlated trace ring. *)
let metrics seed echo secs json =
  let cluster = make_cluster ~seed ~echo in
  with_load cluster (fun () -> Myraft.Cluster.run_for cluster (secs *. s));
  let snap = Myraft.Cluster.metrics_snapshot cluster in
  Printf.printf "\n%s\n" (Obs.Metrics.render snap);
  Printf.printf "recent trace events (opid = term.index):\n%s\n"
    (Obs.Tracebuf.render ~last:12 (Myraft.Cluster.tracebuf cluster));
  Option.iter
    (fun path ->
      write_metrics_json path snap;
      Printf.printf "metrics snapshot written to %s\n" path)
    json

(* Nemesis-driven chaos: a seeded, composable fault schedule with the
   continuous Raft invariant checker; identical seed → identical run. *)
let chaos seed echo steps faults quorum seeds metrics_json no_lease campaign
    max_clock_drift shards auto_purge =
  if shards < 1 then begin
    Printf.eprintf "chaos: --shards must be >= 1\n%!";
    exit 2
  end;
  if echo && shards > 1 then begin
    Printf.eprintf "chaos: --trace echoes a classic cluster only; drop it or --shards\n%!";
    exit 2
  end;
  let base = if campaign then Chaos.Schedule.campaign else Chaos.Schedule.default in
  let spec =
    match faults with
    | [] -> base
    | names -> (
      match Chaos.Schedule.with_faults base names with
      | Ok spec -> spec
      | Error e ->
        Printf.eprintf "chaos: %s\n%!" e;
        exit 2)
  in
  let quorum =
    match quorum with
    | "majority" -> Raft.Quorum.Majority
    | "flexi" | "single-region-dynamic" -> Raft.Quorum.Single_region_dynamic
    | "region-majorities" -> Raft.Quorum.Region_majorities
    | other ->
      Printf.eprintf "chaos: unknown quorum mode %S (majority|flexi|region-majorities)\n%!"
        other;
      exit 2
  in
  let seed_list = if seeds = [] then [ seed ] else seeds in
  let reports =
    List.map
      (fun seed ->
        let r =
          Chaos.Nemesis.run ~spec ~quorum ~lease:(not no_lease) ~max_clock_drift
            ~echo ~auto_purge ~shards ~seed ~steps ()
        in
        Printf.printf "%s\n%!" (Chaos.Nemesis.report_summary r);
        r)
      seed_list
  in
  Option.iter
    (fun path ->
      let snap =
        Obs.Metrics.merge_all ~node:"chaos"
          (List.map (fun r -> r.Chaos.Nemesis.r_metrics) reports)
      in
      write_metrics_json path snap;
      Printf.printf "metrics snapshot written to %s\n" path)
    metrics_json;
  let violations =
    List.fold_left (fun acc r -> acc + List.length r.Chaos.Nemesis.r_violations) 0 reports
  in
  let unconverged = List.filter (fun r -> not r.Chaos.Nemesis.r_converged) reports in
  List.iter
    (fun r -> Printf.printf "  UNCONVERGED seed %d\n" r.Chaos.Nemesis.r_seed)
    unconverged;
  if violations = 0 && unconverged = [] then
    Printf.printf "chaos: %d run(s), zero invariant violations\n"
      (List.length reports)
  else begin
    Printf.printf "chaos: %d invariant violation(s), %d unconverged across %d run(s)\n"
      violations (List.length unconverged) (List.length reports);
    exit 1
  end

(* Membership-churn chaos: directed reconfiguration scenarios (rolling
   region evacuation, self-healing replacement under partition, churn
   under election storms, per-group sharded churn) gated on zero
   violations plus convergence over the final membership. *)
let churn seed seeds scenarios =
  let scenario_list = if scenarios = [] then Chaos.Churn.scenario_names else scenarios in
  let seed_list = if seeds = [] then [ seed ] else seeds in
  let reports =
    List.concat_map
      (fun name ->
        List.map
          (fun seed ->
            match Chaos.Churn.run_scenario ~name ~seed with
            | Ok r ->
              Printf.printf "%s\n%!" (Chaos.Churn.report_summary r);
              r
            | Error e ->
              Printf.eprintf "churn: %s (known: %s)\n%!" e
                (String.concat ", " Chaos.Churn.scenario_names);
              exit 2)
          seed_list)
      scenario_list
  in
  let violations =
    List.fold_left (fun acc r -> acc + List.length r.Chaos.Churn.c_violations) 0 reports
  in
  let unconverged =
    List.filter (fun r -> not r.Chaos.Churn.c_converged) reports
  in
  List.iter
    (fun r ->
      List.iter
        (fun v ->
          Printf.printf "  VIOLATION [%s seed %d] %s\n" r.Chaos.Churn.c_scenario
            r.Chaos.Churn.c_seed
            (Chaos.Invariants.violation_to_string v))
        r.Chaos.Churn.c_violations)
    reports;
  List.iter
    (fun r ->
      Printf.printf "  UNCONVERGED %s seed %d\n" r.Chaos.Churn.c_scenario
        r.Chaos.Churn.c_seed)
    unconverged;
  if violations = 0 && unconverged = [] then
    Printf.printf "churn: %d run(s), zero invariant violations, all converged\n"
      (List.length reports)
  else begin
    Printf.printf "churn: %d violation(s), %d unconverged across %d run(s)\n" violations
      (List.length unconverged) (List.length reports);
    exit 1
  end

let steps_arg =
  Arg.(value & opt int 200 & info [ "steps" ] ~docv:"N" ~doc:"Chaos steps (250 ms each).")

let churn_scenarios_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "scenarios" ] ~docv:"NAMES"
        ~doc:
          "Comma-separated churn scenarios: evacuation, replace-partitioned, \
           storm-churn, sharded-churn.  Default: all of them.")

let faults_arg =
  Arg.(
    value
    & opt (list string) []
    & info [ "faults" ] ~docv:"KINDS"
        ~doc:
          "Comma-separated fault kinds: crash, leader-crash, transfer, partition, \
           isolate, drop, dup, reorder, spike, torn-tail, fsync-stall, plus the \
           adversarial families clock-drift, clock-step, corrupt, asym-partition, \
           storm.  Default: the classic kinds (all 16 with $(b,--campaign)).")

let campaign_arg =
  Arg.(
    value & flag
    & info [ "campaign" ]
        ~doc:
          "Use the adversarial campaign mix (clock, corruption, asymmetric-partition \
           and election-storm attacks on top of the classic kinds).")

let max_clock_drift_arg =
  Arg.(
    value & opt float 0.0
    & info [ "max-clock-drift" ] ~docv:"RATE"
        ~doc:
          "Clock-drift margin the Raft layer absorbs in its lease arithmetic (e.g. \
           0.05 = 5%).  Run clock attacks with this at or above the schedule's drift \
           rate; at 0.0 leases trust the local clock blindly.")

let auto_purge_arg =
  Arg.(
    value & flag
    & info [ "auto-purge" ]
        ~doc:
          "Rotate and purge each group's primary binlog every few steps, so peers that fall \
           behind a fault find their tail compacted away and must be rescued by an \
           engine-checkpoint InstallSnapshot (the purged-log-replication stress mode).")

let shards_arg =
  Arg.(
    value & opt int 1
    & info [ "shards" ] ~docv:"M"
        ~doc:
          "Run the schedule against $(docv) Raft groups multiplexed on the ring \
           (multi-Raft mode with the coalescing mux); invariants are checked per \
           group.  Default 1 = the classic single-group run.  Cannot be combined \
           with $(b,--trace) when $(docv) > 1.")

let quorum_arg =
  Arg.(
    value & opt string "flexi"
    & info [ "quorum" ] ~docv:"MODE" ~doc:"Quorum mode: majority, flexi, region-majorities.")

let seeds_arg =
  Arg.(
    value
    & opt (list int) []
    & info [ "seeds" ] ~docv:"SEEDS" ~doc:"Sweep these seeds instead of --seed.")

let metrics_json_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "metrics-json" ] ~docv:"FILE"
        ~doc:"Write the merged metrics snapshot to $(docv) as JSON.")

let no_lease_arg =
  Arg.(
    value & flag
    & info [ "no-lease" ]
        ~doc:"Disable the leader-lease read fast path (every linearizable read pays a \
              ReadIndex confirmation round).")

let metrics_secs_arg =
  Arg.(
    value & opt float 5.0
    & info [ "secs" ] ~docv:"SECONDS" ~doc:"How long to run traffic before snapshotting.")

let cmd name doc f =
  Cmd.v (Cmd.info name ~doc) Term.(const f $ seed_arg $ trace_arg)

let () =
  let root =
    Cmd.group
      (Cmd.info "myraft_cli" ~version:"1.0"
         ~doc:"Drive MyRaft replicaset scenarios on the simulator")
      [
        cmd "demo" "Bring up a ring and run traffic." demo;
        cmd "failover" "Crash the primary and measure downtime." failover;
        cmd "promote" "Graceful leadership transfer with downtime." promote;
        cmd "status" "Show ring status and Table-1 roles." status;
        cmd "read"
          "Tour the four read consistency levels against the primary and a remote \
           follower, then show bounded-staleness rejection under a region cut."
          read_demo;
        cmd "apply"
          "Serial vs writeset-parallel replica apply on the same traffic: lane \
           occupancy and replication lag, sampled each second."
          apply_demo;
        Cmd.v
          (Cmd.info "metrics"
             ~doc:
               "Run traffic, then print the cluster-wide metrics snapshot (raft/pipeline/\
                binlog counters, stage-latency histograms) and recent OpId-correlated \
                trace events.")
          Term.(const metrics $ seed_arg $ trace_arg $ metrics_secs_arg $ metrics_json_arg);
        Cmd.v
          (Cmd.info "chaos"
             ~doc:
               "Seeded nemesis fault schedule under load with continuous Raft invariant \
                checking; exits non-zero on any violation or a run that does not \
                reconverge after the final heal.")
          Term.(
            const chaos $ seed_arg $ trace_arg $ steps_arg $ faults_arg $ quorum_arg
            $ seeds_arg $ metrics_json_arg $ no_lease_arg $ campaign_arg
            $ max_clock_drift_arg $ shards_arg $ auto_purge_arg);
        Cmd.v
          (Cmd.info "churn"
             ~doc:
               "Membership-churn chaos: rolling region evacuation, self-healing \
                replacement of a dead voter while partitioned, churn under election \
                storms, and per-group sharded churn — under the invariant checker \
                (including the logless-reconfiguration oracles); exits non-zero on \
                any violation or non-convergence.")
          Term.(const churn $ seed_arg $ seeds_arg $ churn_scenarios_arg);
      ]
  in
  exit (Cmd.eval root)
