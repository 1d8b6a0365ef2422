(* Giant-scale proxy fan-out bench: hierarchical PROXY_OP trees versus
   flat leader fan-out on an 8-region, 104-replica replicaset.

     dune exec bench/main.exe -- proxy-scale            # full run
     dune exec bench/main.exe -- proxy-scale --quick    # CI cell

   Topology: region r1 holds the primary, its two logtailers (the
   FlexiRaft in-region data quorum) and ten learner MySQLs; regions
   r2..r8 each hold one voter MySQL and twelve learners — 104 replicas,
   10 voters.  Commits only wait on the r1 logtailers, so both variants
   sustain the same client throughput; what differs is the replication
   fan-out behind the commit point:

   - flat (proxying off): the leader ships every AppendEntries payload
     to all 103 peers itself, 91 of them across a region boundary;
   - tree (proxying on, §4.2): the leader ships the payload once per
     remote region to a designated proxy, which forwards PROXY_OP
     metadata to its region-mates; each mate reconstitutes the payload
     from the proxy's stream — a 2-level fan-out tree.

   Every variant runs inside a [Gc.quick_stat] delta so the JSON also
   records the real allocator cost of simulating a 104-node fleet.

   Writes BENCH_PROXY.json and gates on:
   - cross-region replication bytes: flat must spend at least
     [gate_min_saving]x what the proxy tree spends;
   - equal throughput: the tree must hold >= [gate_min_tps_ratio] of the
     flat variant's committed tps. *)

open Common

let regions = 8

let per_region = 13 (* 104 replicas *)

let threads = 256

let warmup = 1.5 *. s

let gate_min_saving = 3.0

let gate_min_tps_ratio = 0.9

(* r1: primary + 2 logtailers + 10 learners; r2..r8: 1 voter + 12
   learners.  104 members, 10 voters. *)
let members () =
  List.concat_map
    (fun r ->
      let region = Printf.sprintf "r%d" r in
      if r = 1 then
        Myraft.Cluster.mysql "mysql1" region
        :: Myraft.Cluster.logtailer "lt1a" region
        :: Myraft.Cluster.logtailer "lt1b" region
        :: List.init (per_region - 3) (fun i ->
               Myraft.Cluster.mysql ~voter:false (Printf.sprintf "m1-%02d" i) region)
      else
        Myraft.Cluster.mysql (Printf.sprintf "mysql%d" r) region
        :: List.init (per_region - 1) (fun i ->
               Myraft.Cluster.mysql ~voter:false (Printf.sprintf "m%d-%02d" r i) region))
    (List.init regions (fun i -> i + 1))

type variant = {
  v_label : string;
  v_proxying : bool;
  v_committed : int;
  v_tps : float;
  v_p50_us : float;
  v_p99_us : float;
  v_cross_bytes : int;
  v_total_bytes : int;
  v_proxy_forwards : int;
  v_proxy_reconstitutions : int;
  v_proxy_degraded : int;
  v_alloc : Common.alloc_stats;
  v_words_per_txn : float;
  v_node_kwords_per_s : float;  (* minor-heap kwords/s per simulated node *)
}

let run_variant ~proxying ~measure ~seed =
  let params =
    {
      Myraft.Params.default with
      Myraft.Params.raft = { Myraft.Params.default.Myraft.Params.raft with proxying };
    }
  in
  let cluster =
    Myraft.Cluster.create ~seed ~params ~replicaset:"rs-proxy-scale" ~members:(members ())
      ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"proxy-load" ~region:"r1"
      ~client_latency:(100.0 *. us) ~value_mu:(log 300.0) ~value_sigma:0.2 ()
  in
  Workload.Generator.start_closed_loop gen ~threads;
  Myraft.Cluster.run_for cluster warmup;
  (* Count only steady-state replication traffic: reset byte counters
     after warmup so bootstrap catch-up does not pollute the comparison. *)
  Sim.Network.reset_stats (Myraft.Cluster.network cluster);
  let stats = Workload.Generator.stats gen in
  let committed0 = stats.Workload.Generator.committed in
  let (), alloc =
    Common.with_alloc_stats (fun () -> Myraft.Cluster.run_for cluster measure)
  in
  let committed = stats.Workload.Generator.committed - committed0 in
  Workload.Generator.stop gen;
  let net = Myraft.Cluster.network cluster in
  let snap = Myraft.Cluster.metrics_snapshot cluster in
  let lat = stats.Workload.Generator.latencies in
  let nodes = regions * per_region in
  {
    v_label = (if proxying then "tree" else "flat");
    v_proxying = proxying;
    v_committed = committed;
    v_tps = float_of_int committed /. (measure /. s);
    v_p50_us = pct lat 50.0;
    v_p99_us = pct lat 99.0;
    v_cross_bytes = Sim.Network.cross_region_bytes net;
    v_total_bytes = Sim.Network.total_bytes net;
    v_proxy_forwards = Obs.Metrics.counter_of snap "raft.proxy_forwards";
    v_proxy_reconstitutions = Obs.Metrics.counter_of snap "raft.proxy_reconstitutions";
    v_proxy_degraded = Obs.Metrics.counter_of snap "raft.proxy_degraded";
    v_alloc = alloc;
    v_words_per_txn = Common.words_per_txn alloc ~txns:committed;
    v_node_kwords_per_s =
      alloc.al_minor_words /. float_of_int nodes /. (measure /. s) /. 1000.0;
  }

let json_of_variant v =
  Printf.sprintf
    "    {\"variant\": \"%s\", \"proxying\": %b, \"committed\": %d, \"tps\": %.1f, \
     \"p50_us\": %.1f, \"p99_us\": %.1f, \"cross_region_bytes\": %d, \
     \"total_bytes\": %d, \"proxy_forwards\": %d, \"proxy_reconstitutions\": %d, \
     \"proxy_degraded\": %d, \"node_kwords_per_s\": %.1f, %s}"
    v.v_label v.v_proxying v.v_committed v.v_tps v.v_p50_us v.v_p99_us v.v_cross_bytes
    v.v_total_bytes v.v_proxy_forwards v.v_proxy_reconstitutions v.v_proxy_degraded
    v.v_node_kwords_per_s
    (Common.alloc_json v.v_alloc ~txns:v.v_committed)

let write_json ~path ~quick ~flat ~tree ~saving ~tps_ratio ~pass =
  write_results path ~experiment:"proxy-scale"
    [
      ("quick", string_of_bool quick);
      ("regions", string_of_int regions);
      ("replicas", string_of_int (regions * per_region));
      ("variants", json_rows json_of_variant [ flat; tree ]);
      ( "gate",
        Printf.sprintf
          "{\"cross_region_saving\": %.2f, \"min_saving\": %g, \"tps_ratio\": %.3f, \
           \"min_tps_ratio\": %g, \"pass\": %b}"
          saving gate_min_saving tps_ratio gate_min_tps_ratio pass );
    ]

let run () =
  let quick = !Common.quick in
  header
    (Printf.sprintf
       "Proxy fan-out at scale — %d regions x %d replicas, flat vs 2-level tree%s"
       regions per_region
       (if quick then " (CI cell)" else ""));
  let measure = if quick then 1.5 *. s else 4.0 *. s in
  Printf.printf "  closed loop, %d client threads in r1, %.1f s measured per variant\n\n%!"
    threads (measure /. s);
  Printf.printf "  %-6s %10s %10s %9s %9s %14s %12s %12s\n" "fanout" "committed" "tps"
    "p50_ms" "p99_ms" "xregion_MB" "fwd" "reconst";
  let show v =
    Printf.printf "  %-6s %10d %10.0f %9.2f %9.2f %14.2f %12d %12d\n%!" v.v_label
      v.v_committed v.v_tps (v.v_p50_us /. ms) (v.v_p99_us /. ms)
      (float_of_int v.v_cross_bytes /. 1e6)
      v.v_proxy_forwards v.v_proxy_reconstitutions
  in
  let flat = run_variant ~proxying:false ~measure ~seed:83 in
  show flat;
  let tree = run_variant ~proxying:true ~measure ~seed:83 in
  show tree;
  let saving = float_of_int flat.v_cross_bytes /. float_of_int (max tree.v_cross_bytes 1) in
  let tps_ratio = tree.v_tps /. Float.max flat.v_tps 1e-9 in
  let pass = saving >= gate_min_saving && tps_ratio >= gate_min_tps_ratio in
  write_json ~path:"BENCH_PROXY.json" ~quick ~flat ~tree ~saving ~tps_ratio ~pass;
  Printf.printf
    "\n  gate: cross-region bytes flat/tree = %.1fx (need >= %.0fx); tree tps = %.2f \
     of flat (need >= %.2f)\n%!"
    saving gate_min_saving tps_ratio gate_min_tps_ratio;
  Printf.printf "  per-node alloc: flat %.0f kwords/s, tree %.0f kwords/s\n%!"
    flat.v_node_kwords_per_s tree.v_node_kwords_per_s;
  if pass then Printf.printf "  proxy-scale gate: PASS\n%!"
  else begin
    Printf.printf "  proxy-scale gate: FAIL\n%!";
    exit 1
  end
