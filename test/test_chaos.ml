(* Full-cluster chaos tests: Chaos.Nemesis driving a complete MyRaft
   cluster (MySQL servers + logtailers + engines) under an open-loop
   workload while Chaos.Invariants checks continuously.

   Covers the acceptance gates: lossy links (5% drop + duplication +
   reordering) in both quorum modes, torn-tail crash recovery (no
   consensus-committed transaction may ever be lost), a 200-step
   drop+dup+reorder+partition+torn-tail run in both modes, and
   seed-replay determinism (same seed, identical trace digest). *)

let spec_with faults overrides =
  match Chaos.Schedule.with_faults overrides faults with
  | Ok s -> s
  | Error e -> failwith e

let check_clean ~what (r : Chaos.Nemesis.report) =
  (match r.Chaos.Nemesis.r_violations with
  | [] -> ()
  | v :: _ ->
    Alcotest.failf "%s: %d invariant violations (seed %d), first: %s" what
      (List.length r.Chaos.Nemesis.r_violations)
      r.Chaos.Nemesis.r_seed
      (Chaos.Invariants.violation_to_string v));
  if not r.Chaos.Nemesis.r_converged then
    Alcotest.failf "%s: did not reconverge after the final heal (seed %d)" what
      r.Chaos.Nemesis.r_seed;
  if r.Chaos.Nemesis.r_workload_committed < 20 then
    Alcotest.failf "%s: too little progress (%d client commits, seed %d)" what
      r.Chaos.Nemesis.r_workload_committed r.Chaos.Nemesis.r_seed

(* ----- lossy links: 5% drop + duplication + reordering ----- *)

let lossy_spec () =
  spec_with [ "drop"; "dup"; "reorder" ] { Chaos.Schedule.default with drop_p = 0.05 }

let test_lossy_links_majority () =
  let r =
    Chaos.Nemesis.run ~spec:(lossy_spec ()) ~quorum:Raft.Quorum.Majority ~seed:21 ~steps:120 ()
  in
  check_clean ~what:"lossy links (majority)" r

let test_lossy_links_flexiraft () =
  let r =
    Chaos.Nemesis.run ~spec:(lossy_spec ()) ~quorum:Raft.Quorum.Single_region_dynamic ~seed:22
      ~steps:120 ()
  in
  check_clean ~what:"lossy links (flexi)" r

(* ----- torn-tail crash recovery ----- *)

(* Buffered appends + crash lose up to K unsynced log entries on
   restart.  Ack gating on the durable index means no consensus-committed
   transaction may be among them — which is exactly what the commit-
   safety invariant asserts across every crash/restart. *)
let test_torn_tail_loses_no_committed_txn () =
  let spec = spec_with [ "torn-tail"; "crash" ] Chaos.Schedule.default in
  let r = Chaos.Nemesis.run ~spec ~quorum:Raft.Quorum.Single_region_dynamic ~seed:23 ~steps:150 () in
  check_clean ~what:"torn tail" r;
  let torn =
    Option.value
      (List.assoc_opt Chaos.Schedule.Torn_tail r.Chaos.Nemesis.r_injections)
      ~default:0
  in
  if torn = 0 then Alcotest.fail "schedule never injected a torn tail; test proves nothing"

(* ----- acceptance run + seed-replay determinism ----- *)

(* The acceptance gate: >=200 steps of drop + dup + reorder + partition +
   torn-tail, zero violations in both quorum modes and on a 2-shard
   multi-Raft deployment, and the same seed must reproduce the identical
   trace (digest equality). *)
let test_acceptance_run_and_determinism () =
  let spec =
    spec_with [ "drop"; "dup"; "reorder"; "partition"; "torn-tail" ] Chaos.Schedule.default
  in
  List.iter
    (fun quorum ->
      let name = Chaos.Nemesis.quorum_name quorum in
      let run () = Chaos.Nemesis.run ~spec ~quorum ~seed:42 ~steps:200 () in
      let a = run () in
      check_clean ~what:("acceptance (" ^ name ^ ")") a;
      let b = run () in
      Alcotest.(check int32)
        (name ^ ": same seed, same trace digest")
        a.Chaos.Nemesis.r_trace_digest b.Chaos.Nemesis.r_trace_digest;
      Alcotest.(check int)
        (name ^ ": same seed, same commit count")
        a.Chaos.Nemesis.r_workload_committed b.Chaos.Nemesis.r_workload_committed)
    [ Raft.Quorum.Majority; Raft.Quorum.Single_region_dynamic ];
  (* The multi-Raft deployment digests its shared trace, which carries
     every group's Raft events: the same seed must replay it exactly. *)
  let run () = Chaos.Nemesis.run ~spec ~shards:2 ~seed:42 ~steps:200 () in
  let a = run () in
  check_clean ~what:"acceptance (2 shards)" a;
  let b = run () in
  Alcotest.(check int32) "2 shards: same seed, same trace digest"
    a.Chaos.Nemesis.r_trace_digest b.Chaos.Nemesis.r_trace_digest

(* ----- schedule: zero-weight faults are never sampled ----- *)

(* A weight of exactly 0.0 means "in the mix but disabled"; the old
   weighted draw could still return such a kind through its fallback
   arm.  Also: a mix with no positive weight draws nothing. *)
let test_schedule_zero_weight_never_drawn () =
  let rng = Sim.Rng.of_int 1234 in
  let spec =
    { Chaos.Schedule.default with
      mix = [ (Chaos.Schedule.Crash_restart, 0.0); (Chaos.Schedule.Leader_crash, 1.0) ]
    }
  in
  for _ = 1 to 1000 do
    match Chaos.Schedule.draw spec rng with
    | Some Chaos.Schedule.Leader_crash -> ()
    | Some k -> Alcotest.failf "zero-weight kind drawn: %s" (Chaos.Schedule.kind_to_string k)
    | None -> Alcotest.fail "draw returned None with a positive weight present"
  done;
  let dead =
    { spec with
      mix = [ (Chaos.Schedule.Crash_restart, 0.0); (Chaos.Schedule.Torn_tail, -1.0) ]
    }
  in
  Alcotest.(check bool) "all-zero mix draws nothing" true (Chaos.Schedule.draw dead rng = None)

(* ----- lease attack regression: slow clock + ack starvation ----- *)

(* The adversarial scenario the per-node clock model exists for: slow
   the leader's oscillator to 0.8x (its lease now looks valid 25%
   longer than it really is) and drop every follower->leader link so no
   ack can re-extend the lease; keep requesting lease reads throughout.
   A rate change is the stealthy variant of the attack — unlike a
   backward step it never violates local monotonicity, so the always-on
   backward-step watchdog cannot see it.  With [max_clock_drift = 0]
   the leader trusts its local clock blindly and serves reads past the
   lease's true expiry — the bug this PR's clock-fault detectors fix.
   With the margin configured, the heartbeat tick-interval watchdog
   catches the rate transition, revokes the lease, and not one stale
   read is served. *)
let ms = Sim.Engine.ms
let s = Sim.Engine.s

let lease_attack_stale_serves ~max_clock_drift =
  let params =
    { Myraft.Params.default with
      raft =
        { Myraft.Params.default.Myraft.Params.raft with
          Raft.Node.use_leader_lease = true;
          max_clock_drift
        }
    }
  in
  let c =
    Myraft.Cluster.create ~seed:7 ~params ~replicaset:"lease-attack"
      ~members:(Myraft.Cluster.single_region_members ()) ()
  in
  Myraft.Cluster.bootstrap c ~leader_id:"mysql1";
  Myraft.Cluster.run_for c (2.0 *. s);
  let raft =
    match Myraft.Cluster.raft_of c "mysql1" with
    | Some r -> r
    | None -> Alcotest.fail "no raft on mysql1"
  in
  Alcotest.(check bool) "mysql1 leads" true (Raft.Node.is_leader raft);
  let clock =
    match Myraft.Cluster.clock_of c "mysql1" with
    | Some k -> k
    | None -> Alcotest.fail "no clock on mysql1"
  in
  Sim.Clock.set_rate clock 0.8;
  let net = Myraft.Cluster.network c in
  List.iter
    (fun id ->
      if id <> "mysql1" then
        Sim.Network.set_link_faults net ~src:id ~dst:"mysql1"
          { Sim.Network.no_faults with drop = 1.0 })
    (Myraft.Cluster.member_ids c);
  let engine = Myraft.Cluster.engine c in
  let rec reader () =
    if Raft.Node.is_leader raft then Raft.Node.read_index raft (fun _ -> ());
    ignore (Sim.Engine.schedule engine ~delay:(20.0 *. ms) reader)
  in
  reader ();
  Myraft.Cluster.run_for c (4.0 *. s);
  Raft.Node.lease_stale_serves raft

let test_lease_attack_unmargined_serves_stale () =
  let stale = lease_attack_stale_serves ~max_clock_drift:0.0 in
  if stale = 0 then
    Alcotest.fail
      "attack failed to reproduce the pre-fix bug: no stale lease read was served with \
       a zero drift margin (the regression scenario proves nothing)"

let test_lease_attack_margined_serves_none () =
  Alcotest.(check int) "no stale lease reads with the drift margin configured" 0
    (lease_attack_stale_serves ~max_clock_drift:0.05)

(* ----- disk corruption: detection live, recovery on restart ----- *)

(* Rot an entry in a follower's committed prefix.  While the node is
   still serving that log, the corrupt-entry-served invariant must flag
   it (this is the checker's pre-fix demonstration: without the recovery
   scan the rot would persist forever).  Then crash + restart the node:
   recovery must detect the CRC failure, truncate the suffix, refetch it
   from the leader, and reconverge byte-identically. *)
let test_corruption_recovery_regression () =
  let c =
    Myraft.Cluster.create ~seed:9 ~replicaset:"rot"
      ~members:(Myraft.Cluster.single_region_members ()) ()
  in
  Myraft.Cluster.bootstrap c ~leader_id:"mysql1";
  let backend = Workload.Backend.myraft c in
  let gen = Workload.Generator.create ~backend ~client_id:"rot-client" ~region:"r1" () in
  Workload.Generator.start_open_loop gen ~rate_per_s:200.0;
  Myraft.Cluster.run_for c (3.0 *. s);
  Workload.Generator.stop gen;
  Myraft.Cluster.run_for c (1.0 *. s);
  let store =
    match Myraft.Cluster.server c "mysql2" with
    | Some srv -> Myraft.Server.log srv
    | None -> Alcotest.fail "no mysql2"
  in
  let ci =
    match Myraft.Cluster.raft_of c "mysql2" with
    | Some r -> Raft.Node.commit_index r
    | None -> Alcotest.fail "no raft on mysql2"
  in
  Alcotest.(check bool) "enough committed traffic" true (ci > 50);
  let idx = ci / 2 in
  Alcotest.(check bool) "rot injected" true
    (Binlog.Log_store.corrupt_entry store ~index:idx ~flavor:Binlog.Entry.Body);
  (* live detection: the checker must flag the corrupt committed entry *)
  let inv =
    Chaos.Invariants.create
      ~now:(fun () -> Myraft.Cluster.now c)
      ~probes:(Chaos.Nemesis.probes_of_cluster c)
      ()
  in
  for _ = 1 to (ci / 128) + 2 do
    Chaos.Invariants.check inv
  done;
  (match
     List.find_opt
       (fun v -> v.Chaos.Invariants.v_invariant = "corrupt-entry-served")
       (Chaos.Invariants.violations inv)
   with
  | Some _ -> ()
  | None -> Alcotest.fail "checker missed a corrupt entry inside a committed prefix");
  (* recovery: crash + restart must scan, truncate and refetch *)
  Myraft.Cluster.crash c "mysql2";
  Myraft.Cluster.restart c "mysql2";
  let detected =
    match Myraft.Cluster.metrics_of c "mysql2" with
    | Some m -> Obs.Metrics.counter_of (Obs.Metrics.snapshot m) "binlog.corruption_detected"
    | None -> 0
  in
  Alcotest.(check bool) "recovery scan detected the rot" true (detected >= 1);
  let leader_tail () =
    match Myraft.Cluster.raft_of c "mysql1" with
    | Some r -> Binlog.Opid.index (Raft.Node.last_opid r)
    | None -> 0
  in
  let converged =
    Myraft.Cluster.run_until c ~timeout:(30.0 *. s) (fun () ->
        Binlog.Log_store.last_index store = leader_tail () && leader_tail () > 0)
  in
  Alcotest.(check bool) "mysql2 refetched the truncated suffix" true converged;
  (* every entry it now serves verifies clean *)
  let lo = max 1 (Binlog.Log_store.purged_below store) in
  for i = lo to Binlog.Log_store.last_index store do
    match Binlog.Log_store.entry_at store i with
    | Some e ->
      if not (Binlog.Entry.verify e) then
        Alcotest.failf "entry %d still fails its checksum after recovery" i
    | None -> ()
  done;
  (* and the cluster as a whole is clean again *)
  let inv2 =
    Chaos.Invariants.create
      ~now:(fun () -> Myraft.Cluster.now c)
      ~probes:(Chaos.Nemesis.probes_of_cluster c)
      ()
  in
  for _ = 1 to (ci / 128) + 2 do
    Chaos.Invariants.check inv2
  done;
  Alcotest.(check int) "no violations after recovery" 0
    (Chaos.Invariants.violation_count inv2)

(* ----- storm + ack starvation: commit over a divergent suffix ----- *)

(* The second pre-fix bug the campaign surfaced (seed 21): election
   storms depose a leader that an asymmetric partition keeps ignorant —
   it cannot hear the new terms, so it keeps appending a divergent
   suffix no ack will ever commit.  When the partition heals, the new
   leader's heartbeats anchor at match_index 0 (trivially matching
   prev), carry a high commit index — and the deposed leader adopted
   [min leader_commit (raw log tail)], committing its own never-chosen
   entries to the engine before truncation could arrive
   (engine-convergence violation at the first divergent commit).  The
   fix caps commit adoption and the freshness anchor at the prefix the
   request actually VERIFIED (prev + entries carried). *)
let test_storm_starved_leader_commits_nothing_divergent () =
  let spec = spec_with [ "asym-partition"; "storm" ] Chaos.Schedule.campaign in
  let r = Chaos.Nemesis.run ~spec ~quorum:Raft.Quorum.Single_region_dynamic ~seed:21 ~steps:40 () in
  check_clean ~what:"storm + asym ack starvation" r;
  let count k =
    Option.value (List.assoc_opt k r.Chaos.Nemesis.r_injections) ~default:0
  in
  if count Chaos.Schedule.Election_storm = 0 || count Chaos.Schedule.Asym_partition = 0
  then Alcotest.fail "schedule never paired a storm with an asym partition; test proves nothing"

(* Regression (seed 32): a forced election could depose a leader whose
   lease was still live.  The lease-safety argument assumes no Real
   quorum forms within the stickiness window of the last quorum ack, but
   leader stickiness was only enforced on Pre-votes — and a chaos storm
   (trigger_election) goes straight to Real.  Voters who were still
   receiving the old leader's heartbeats (asym partitions cut only the
   ack direction) elected the storm candidate; it committed writes while
   the partitioned old leader, unaware of the new term, kept serving
   lease reads its arithmetic said were safe — stale by linearizability
   though not past global lease expiry, so only the linearizability
   checker caught it.  The fix applies stickiness to Real votes too,
   exempting only TimeoutNow transfers (whose initiating leader has
   already voided its lease). *)
let test_storm_cannot_depose_live_leaseholder () =
  let spec = spec_with [ "asym-partition"; "storm" ] Chaos.Schedule.campaign in
  let r = Chaos.Nemesis.run ~spec ~quorum:Raft.Quorum.Single_region_dynamic ~seed:32 ~steps:80 () in
  check_clean ~what:"storm vs live lease" r;
  let count k =
    Option.value (List.assoc_opt k r.Chaos.Nemesis.r_injections) ~default:0
  in
  if count Chaos.Schedule.Election_storm = 0 || count Chaos.Schedule.Asym_partition = 0
  then Alcotest.fail "schedule never paired a storm with an asym partition; test proves nothing"

(* ----- the checker itself must catch violations ----- *)

(* Negative control: two identically seeded single-node rings elect the
   same term independently; pointing one checker at both must produce an
   election-safety violation.  Guards against the checker silently
   checking nothing. *)
let test_invariants_catch_two_leaders () =
  let harness id =
    Test_raft.make_harness ~seed:11 ~params:Test_raft.majority_params
      [ (id, "r1", true, Raft.Types.Mysql_server) ]
  in
  let ha = harness "xa" and hb = harness "xb" in
  let elected h id =
    Test_raft.run_until h ~timeout:(10.0 *. Sim.Engine.s) (fun () ->
        Test_raft.leaders h = [ id ])
  in
  Alcotest.(check bool) "xa elected" true (elected ha "xa");
  Alcotest.(check bool) "xb elected" true (elected hb "xb");
  let term h id = Raft.Node.current_term (Test_raft.raft (Test_raft.get h id)) in
  Alcotest.(check int) "same seed, same term" (term ha "xa") (term hb "xb");
  let probe h id =
    let n = Test_raft.get h id in
    {
      Chaos.Invariants.probe_id = id;
      probe_up = (fun () -> n.Test_raft.up);
      probe_raft = (fun () -> Some (Test_raft.raft n));
      probe_store = (fun () -> Some n.Test_raft.store);
      probe_engine = (fun () -> None);
    }
  in
  let inv =
    Chaos.Invariants.create
      ~snapshot:(fun () ->
        let m = Obs.Metrics.create ~node:"harness" () in
        Obs.Metrics.bump m "checker.polls";
        Obs.Metrics.snapshot m)
      ~now:(fun () -> Sim.Engine.now ha.Test_raft.engine)
      ~probes:[ probe ha "xa"; probe hb "xb" ]
      ()
  in
  Chaos.Invariants.check inv;
  match Chaos.Invariants.violations inv with
  | [] -> Alcotest.fail "checker missed two leaders sharing a term"
  | v :: _ -> (
    Alcotest.(check string)
      "flagged as election safety" "election-safety" v.Chaos.Invariants.v_invariant;
    match v.Chaos.Invariants.v_metrics with
    | None -> Alcotest.fail "violation carries no metrics snapshot"
    | Some snap ->
      Alcotest.(check int) "snapshot captured at detection" 1
        (Obs.Metrics.counter_of snap "checker.polls"))

let suites =
  [
    ( "chaos.cluster",
      [
        Alcotest.test_case "lossy links: majority" `Slow test_lossy_links_majority;
        Alcotest.test_case "lossy links: flexiraft" `Slow test_lossy_links_flexiraft;
        Alcotest.test_case "torn tail loses nothing committed" `Slow
          test_torn_tail_loses_no_committed_txn;
        Alcotest.test_case "acceptance run + determinism" `Slow
          test_acceptance_run_and_determinism;
        Alcotest.test_case "checker catches two leaders" `Quick
          test_invariants_catch_two_leaders;
        Alcotest.test_case "zero-weight faults never drawn" `Quick
          test_schedule_zero_weight_never_drawn;
        Alcotest.test_case "lease attack: unmargined leader serves stale" `Quick
          test_lease_attack_unmargined_serves_stale;
        Alcotest.test_case "lease attack: margined leader serves none" `Quick
          test_lease_attack_margined_serves_none;
        Alcotest.test_case "storm + asym: no divergent suffix committed" `Quick
          test_storm_starved_leader_commits_nothing_divergent;
        Alcotest.test_case "storm cannot depose a live leaseholder" `Quick
          test_storm_cannot_depose_live_leaseholder;
        Alcotest.test_case "disk corruption: detect live, recover on restart" `Quick
          test_corruption_recovery_regression;
      ] );
  ]
