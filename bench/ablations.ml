(* Design-choice ablations called out in DESIGN.md:
   - P1: Raft Proxying cross-region bandwidth (§4.2.2's 2-5% overhead
     claim and the bandwidth the hierarchy saves);
   - A1: mock elections vs transfers into a lagging region (§4.3);
   - A2: FlexiRaft quorum modes vs commit latency (§4.1). *)

open Common

(* ----- P1: proxying bandwidth ----- *)

let proxy_workload ~proxying ~seed =
  let params =
    {
      Myraft.Params.default with
      Myraft.Params.raft = { Myraft.Params.default.Myraft.Params.raft with proxying };
    }
  in
  let cluster =
    Myraft.Cluster.create ~seed ~params ~replicaset:"rs-proxy"
      ~members:(ab_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  Sim.Network.reset_stats (Myraft.Cluster.network cluster);
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"load" ~region:"r1"
      ~client_latency:(100.0 *. us) ~value_mu:(log 500.0) ~value_sigma:0.1 ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:400.0;
  Myraft.Cluster.run_for cluster (20.0 *. s);
  Workload.Generator.stop gen;
  Myraft.Cluster.run_for cluster (2.0 *. s);
  let net = Myraft.Cluster.network cluster in
  let committed = (Workload.Generator.stats gen).Workload.Generator.committed in
  (Sim.Network.cross_region_bytes net, Sim.Network.total_bytes net, committed)

let proxy ?(seed = 41) () =
  header "P1 — Raft Proxying: cross-region bandwidth (§4.2.2)";
  Printf.printf
    "Six-region evaluation ring, ~500-byte entries.  Proxying ships the payload\n\
     once per region plus metadata-only PROXY_OPs for region-mates.\n%!";
  let on_cross, on_total, on_committed = proxy_workload ~proxying:true ~seed in
  let off_cross, off_total, off_committed = proxy_workload ~proxying:false ~seed in
  Printf.printf "  %-28s %14s %14s %10s\n" "" "cross-region B" "total B" "commits";
  Printf.printf "  %-28s %14d %14d %10d\n" "proxying ON" on_cross on_total on_committed;
  Printf.printf "  %-28s %14d %14d %10d\n" "proxying OFF (vanilla)" off_cross off_total
    off_committed;
  let savings = 100.0 *. (1.0 -. (float_of_int on_cross /. float_of_int off_cross)) in
  (* Per-connection burden of a proxied downstream member: metadata-only
     PROXY_OPs instead of full payloads.  In this topology each remote
     region has 3 members: 1 gets the payload, 2 get PROXY_OPs, so
     cross-region data bytes shrink to ~1/3 plus the metadata burden. *)
  paper_vs_measured ~label:"cross-region bandwidth saved by proxying"
    ~paper:"~2/3 in a 3-member region" ~measured:(Printf.sprintf "%.1f%%" savings);
  (* §4.2.2's back-of-the-envelope: the per-connection burden of serving
     a proxied downstream member is the PROXY_OP metadata instead of full
     ~500-byte entries.  A PROXY_OP references a batch of entries, so the
     per-entry burden depends on how many ops ride in one message. *)
  let proxy_op_bytes =
    Raft.Message.size
      (Raft.Message.Proxied
         {
           next_hops = [ "x" ];
           inner =
             Raft.Message.Append_entries
               {
                 term = 1;
                 leader_id = "leader";
                 leader_region = "r1";
                 prev_opid = Binlog.Opid.zero;
                 payload = Raft.Message.Refs { first_index = 1; last_index = 1; last_term = 1 };
                 commit_index = 1;
                 seq = 1;
                 reply_route = [ "x" ];
                 leader_time = 0.0;
                 leader_last_index = 1;
                 cfg_id = Raft.Types.cfg_id_zero;
                 cfg = None;
               };
         })
  in
  let vanilla_bytes ~batch =
    Raft.Message.size
      (Raft.Message.Append_entries
         {
           term = 1;
           leader_id = "leader";
           leader_region = "r1";
           prev_opid = Binlog.Opid.zero;
           payload =
             Raft.Message.Entries
               (Array.init batch (fun i ->
                    Binlog.Entry.make
                      ~opid:(Binlog.Opid.make ~term:1 ~index:(i + 1))
                      (Binlog.Entry.Transaction
                         {
                           gtid = Binlog.Gtid.make ~source:"s" ~gno:(i + 1);
                           table = "t";
                           ops =
                             [
                               Binlog.Event.Insert
                                 { key = "k"; value = String.make 500 'x' };
                             ];
                           xid = 0;
                         })));
           commit_index = 1;
           seq = 1;
           reply_route = [];
           leader_time = 0.0;
           leader_last_index = 1;
           cfg_id = Raft.Types.cfg_id_zero;
           cfg = None;
         })
  in
  let burden batch =
    100.0 *. float_of_int proxy_op_bytes /. float_of_int (vanilla_bytes ~batch)
  in
  paper_vs_measured ~label:"PROXY_OP burden vs vanilla (500B entries)"
    ~paper:"2-5%"
    ~measured:
      (Printf.sprintf "%.1f%% at 1 op/msg, %.1f%% at 4, %.1f%% at 8 (PROXY_OP=%dB)"
         (burden 1) (burden 4) (burden 8) proxy_op_bytes);
  (on_cross, off_cross)

(* ----- A1: mock elections ----- *)

let mock_members () =
  [
    Myraft.Cluster.mysql "mysql1" "r1";
    Myraft.Cluster.logtailer "lt1a" "r1";
    Myraft.Cluster.logtailer "lt1b" "r1";
    Myraft.Cluster.mysql "mysql2" "r2";
    Myraft.Cluster.logtailer "lt2a" "r2";
    Myraft.Cluster.logtailer "lt2b" "r2";
  ]

let mock_trial ~use_mock ~seed =
  let params =
    {
      Myraft.Params.default with
      Myraft.Params.raft =
        { Myraft.Params.default.Myraft.Params.raft with use_mock_elections = use_mock };
    }
  in
  let cluster =
    Myraft.Cluster.create ~seed ~params ~replicaset:"rs-mock" ~members:(mock_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  let probe = Myraft.Availability.start cluster ~client_id:"probe" in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  (* Lag r2's logtailers: the transfer target's region quorum cannot
     function.  An unhealthy-logtailer situation automation has not yet
     repaired (§4.3). *)
  Myraft.Cluster.isolate cluster "lt2a";
  Myraft.Cluster.isolate cluster "lt2b";
  Myraft.Cluster.run_for cluster (2.0 *. s);
  let incident_at = Myraft.Cluster.now cluster in
  ignore (Myraft.Cluster.transfer_leadership cluster ~target:"mysql2");
  Myraft.Cluster.run_for cluster (20.0 *. s);
  (* automation heals the logtailers eventually *)
  Myraft.Cluster.heal cluster "lt2a";
  Myraft.Cluster.heal cluster "lt2b";
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(60.0 *. s) (fun () ->
         Myraft.Cluster.primary cluster <> None));
  Myraft.Cluster.run_for cluster (3.0 *. s);
  let end_at = Myraft.Cluster.now cluster in
  Myraft.Availability.stop probe;
  Myraft.Availability.max_downtime probe ~start_time:incident_at ~end_time:end_at

let mock ?(trials = 10) () =
  header "A1 — Mock elections: transfer into a region with lagging logtailers (§4.3)";
  let with_mock = Stats.Histogram.create () in
  let without_mock = Stats.Histogram.create () in
  for i = 1 to trials do
    Stats.Histogram.record with_mock (mock_trial ~use_mock:true ~seed:(5000 + i));
    Stats.Histogram.record without_mock (mock_trial ~use_mock:false ~seed:(5000 + i))
  done;
  dist_row ~label:"mock ON" with_mock;
  dist_row ~label:"mock OFF" without_mock;
  paper_vs_measured ~label:"availability loss with mock elections"
    ~paper:"eliminated"
    ~measured:(Printf.sprintf "avg %.0fms downtime" (Stats.Histogram.mean with_mock /. ms));
  paper_vs_measured ~label:"availability loss without mock elections"
    ~paper:"write unavailability until logtailers heal"
    ~measured:(Printf.sprintf "avg %.0fms downtime" (Stats.Histogram.mean without_mock /. ms));
  (with_mock, without_mock)

(* ----- P2: leader NIC hotspot ----- *)

(* §4.2's second motivation: without proxying the leader replicates every
   payload to every global member directly, making its NIC the fleet's
   hotspot.  Measure the leader's egress under identical committed
   workloads with and without the hierarchy.  (The simulator models no
   NIC queue: a FIFO egress queue could not fairly arbitrate small
   quorum-critical AEs against bulk catch-up transfers the way
   per-connection TCP does, so this experiment reports offered NIC load
   rather than queueing-delay claims.) *)
let hotspot_run ~proxying ~seed =
  let params =
    {
      Myraft.Params.default with
      Myraft.Params.raft = { Myraft.Params.default.Myraft.Params.raft with proxying };
    }
  in
  let cluster =
    Myraft.Cluster.create ~seed ~params ~replicaset:"rs-hot" ~members:(ab_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  Myraft.Cluster.run_for cluster (2.0 *. s);
  Sim.Network.reset_stats (Myraft.Cluster.network cluster);
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"load" ~region:"r1"
      ~client_latency:(100.0 *. us) ~value_mu:(log 1500.0) ~value_sigma:0.2 ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:800.0;
  let duration = 15.0 *. s in
  Myraft.Cluster.run_for cluster duration;
  Workload.Generator.stop gen;
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let st = Workload.Generator.stats gen in
  let net = Myraft.Cluster.network cluster in
  let leader_egress =
    List.fold_left
      (fun acc m -> acc + Sim.Network.link_bytes net ~src:"mysql1" ~dst:m)
      0
      (Myraft.Cluster.member_ids cluster)
  in
  ( float_of_int leader_egress /. (duration /. s) /. 1e6 (* MB/s *),
    float_of_int leader_egress /. float_of_int (max 1 st.Workload.Generator.committed),
    st.Workload.Generator.committed,
    Stats.Histogram.mean st.Workload.Generator.latencies )

let hotspot ?(seed = 53) () =
  header "P2 — leader NIC hotspot relief (§4.2)";
  Printf.printf
    "Six-region ring, 800 writes/s of ~1.5KB rows.  Without proxying every\n\
     payload leaves the leader once per member (19x); with the hierarchy it\n\
     leaves once per region plus metadata-only PROXY_OPs.\n";
  let on_mbs, on_per_commit, on_committed, on_avg = hotspot_run ~proxying:true ~seed in
  let off_mbs, off_per_commit, off_committed, off_avg = hotspot_run ~proxying:false ~seed in
  Printf.printf "  %-26s %14s %18s %10s %12s\n" "" "leader egress" "bytes/commit" "commits"
    "avg commit";
  Printf.printf "  %-26s %11.1f MB/s %18.0f %10d %10.0fus\n" "proxying ON" on_mbs
    on_per_commit on_committed on_avg;
  Printf.printf "  %-26s %11.1f MB/s %18.0f %10d %10.0fus\n" "proxying OFF (vanilla)"
    off_mbs off_per_commit off_committed off_avg;
  paper_vs_measured ~label:"leader-hotspot relief"
    ~paper:"prevent the leader from becoming a hotspot"
    ~measured:
      (Printf.sprintf "leader egress %.1f -> %.1f MB/s (%.1fx less) at equal throughput"
         off_mbs on_mbs (off_mbs /. on_mbs));
  ((on_mbs, on_per_commit), (off_mbs, off_per_commit))

(* ----- A4: automatic step-down (extension) ----- *)

(* kuduraft has no automatic step down (§4.1): clients of an isolated
   leader block on consensus commit until they time out.  With the
   optional extension enabled, the stranded leader abdicates and aborts
   its in-flight transactions, so clients get fast, clean errors. *)
let stepdown_trial ~auto ~seed =
  let params =
    {
      Myraft.Params.default with
      Myraft.Params.raft =
        {
          Myraft.Params.default.Myraft.Params.raft with
          auto_step_down_after = (if auto then 2.0 *. s else 0.0);
        };
    }
  in
  let cluster =
    Myraft.Cluster.create ~seed ~params ~replicaset:"rs-sd"
      ~members:(Myraft.Cluster.small_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  Myraft.Cluster.isolate cluster "mysql1";
  let settle_times = Stats.Histogram.create () in
  let pending = ref 0 in
  let t0 = Myraft.Cluster.now cluster in
  for i = 1 to 20 do
    incr pending;
    Myraft.Server.submit_write primary ~table:"t"
      ~ops:[ Binlog.Event.Insert { key = Printf.sprintf "sd%d" i; value = "v" } ]
      ~reply:(fun _ ->
        decr pending;
        Stats.Histogram.record settle_times (Myraft.Cluster.now cluster -. t0))
  done;
  ignore (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () -> !pending = 0));
  let settled = Stats.Histogram.count settle_times in
  let mean_settle =
    if settled = 0 then infinity else Stats.Histogram.mean settle_times
  in
  (settled, mean_settle)

let stepdown ?(seed = 83) () =
  header "A4 — automatic leader step-down (optional extension; §4.1 gap)";
  Printf.printf
    "20 writes against a leader that is isolated from its quorum; 30s window.\n";
  let on_settled, on_mean = stepdown_trial ~auto:true ~seed in
  let off_settled, off_mean = stepdown_trial ~auto:false ~seed in
  Printf.printf "  %-26s %10s %18s\n" "" "settled" "mean time to error";
  Printf.printf "  %-26s %10d %18s\n" "auto step-down ON" on_settled
    (if on_mean = infinity then "-" else Printf.sprintf "%.1fs" (on_mean /. s));
  Printf.printf "  %-26s %10d %18s\n" "auto step-down OFF (paper)" off_settled
    (if off_mean = infinity then "-" else Printf.sprintf "%.1fs" (off_mean /. s));
  paper_vs_measured ~label:"isolated-leader client experience"
    ~paper:"writes block; kuduraft has no auto step down"
    ~measured:
      (Printf.sprintf "OFF: %d/20 settle in 30s; ON: %d/20 with fast errors" off_settled
         on_settled);
  (on_settled, off_settled)

(* ----- A3: group-commit pipeline scaling ----- *)

(* The three-stage pipeline's group commit (§3.4) is what lets one fsync
   and one consensus round amortize across concurrent clients: as offered
   concurrency grows, flush groups grow and throughput scales while
   per-transaction latency stays bounded by the quorum RTT. *)
let group_commit_run ~threads ~seed =
  let cluster =
    Myraft.Cluster.create ~seed ~replicaset:"rs-gc"
      ~members:(Myraft.Cluster.single_region_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"gc" ~region:"r1"
      ~client_latency:(5.0 *. us) ~value_mu:(log 180.0) ~value_sigma:0.25 ()
  in
  Workload.Generator.start_closed_loop gen ~threads;
  Myraft.Cluster.run_for cluster (10.0 *. s);
  Workload.Generator.stop gen;
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let st = Workload.Generator.stats gen in
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  let pipeline = Myraft.Server.pipeline primary in
  ( st.Workload.Generator.committed,
    Stats.Histogram.mean st.Workload.Generator.latencies,
    Myraft.Pipeline.mean_group_size pipeline )

let group_commit ?(seed = 71) () =
  header "A3 — group-commit pipeline scaling (§3.4)";
  Printf.printf
    "Single-region ring, colocated closed-loop clients; 10s of load per point.\n";
  Printf.printf "  %8s %14s %16s %18s\n" "threads" "commits/s" "avg latency us" "mean group size";
  let rows =
    List.map
      (fun threads ->
        let committed, avg_latency, group = group_commit_run ~threads ~seed in
        Printf.printf "  %8d %14.0f %16.1f %18.2f\n%!" threads
          (float_of_int committed /. 10.0)
          avg_latency group;
        (threads, committed, group))
      [ 1; 4; 16; 64 ]
  in
  (match (List.nth rows 0, List.nth rows 3) with
  | (_, c1, g1), (_, c64, g64) ->
    paper_vs_measured ~label:"throughput scaling, 1 -> 64 threads"
      ~paper:"group commit amortizes flush + consensus"
      ~measured:
        (Printf.sprintf "%.1fx throughput, group size %.1f -> %.1f"
           (float_of_int c64 /. float_of_int c1)
           g1 g64));
  rows

(* ----- A2: FlexiRaft quorum modes ----- *)

let flexi_mode_latency ~mode ~seed =
  let params =
    {
      Myraft.Params.default with
      Myraft.Params.raft = { Myraft.Params.default.Myraft.Params.raft with quorum_mode = mode };
    }
  in
  let cluster =
    Myraft.Cluster.create ~seed ~params ~replicaset:"rs-flexi" ~members:(ab_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"load" ~region:"r1"
      ~client_latency:(5.0 *. us) ~value_mu:(log 180.0) ~value_sigma:0.25 ()
  in
  Workload.Generator.start_closed_loop gen ~threads:4;
  Myraft.Cluster.run_for cluster (20.0 *. s);
  Workload.Generator.stop gen;
  Myraft.Cluster.run_for cluster (2.0 *. s);
  (Workload.Generator.stats gen).Workload.Generator.latencies

let flexi ?(seed = 61) () =
  header "A2 — FlexiRaft quorum modes vs commit latency (§4.1)";
  Printf.printf
    "Same six-region ring and colocated closed-loop load; only the commit quorum\n\
     rule changes.  Single-region-dynamic is the paper's production mode.\n%!";
  let srd = flexi_mode_latency ~mode:Raft.Quorum.Single_region_dynamic ~seed in
  let maj = flexi_mode_latency ~mode:Raft.Quorum.Majority ~seed in
  let reg = flexi_mode_latency ~mode:Raft.Quorum.Region_majorities ~seed in
  dist_row ~label:"single-region-dynamic" srd;
  dist_row ~label:"majority-of-all" maj;
  dist_row ~label:"region-majorities" reg;
  paper_vs_measured ~label:"single-region commits"
    ~paper:"hundreds of microseconds"
    ~measured:(Printf.sprintf "avg %.0fus" (Stats.Histogram.mean srd));
  paper_vs_measured ~label:"multi-region quorums"
    ~paper:"cross-region RTT bound (tens of ms)"
    ~measured:
      (Printf.sprintf "majority avg %.1fms, region-majorities avg %.1fms"
         (Stats.Histogram.mean maj /. ms)
         (Stats.Histogram.mean reg /. ms));
  (srd, maj, reg)
