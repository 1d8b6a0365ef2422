(* Multi-Raft shard bench: aggregate commit throughput and per-node
   message rate as a function of consensus-group count and key skew.

     dune exec bench/main.exe -- shards            # full sweep
     dune exec bench/main.exe -- shards --quick    # CI cells only

   Each cell stands up [groups] independent Raft groups multiplexed on
   the same three-region trio behind the coalescing {!Shard.Mux}, routes
   a closed-loop workload through the {!Shard.Router} front door, and
   measures the steady-state window.  One group serializes every commit
   through a single leader pipeline; more groups spread leaders across
   the regions and commit independent shards in parallel, so aggregate
   throughput should scale near-linearly while cross-group coalescing
   (shared packets, piggybacked heartbeats) keeps the per-node message
   rate sublinear in the group count.

   Each cell measures two windows: a loaded one for aggregate tps, and
   an idle tail for the steady-state background message rate — the
   traffic (heartbeats, lease renewals) that would scale linearly with
   group count without coalescing, and that dominates a real fleet where
   most of thousands of groups are quiet at any instant.

   Writes BENCH_SHARDS.json and, for CI, gates on the uniform cells:
   4 groups must commit at least [gate_tps_ratio] times the 1-group
   aggregate, and the coalesced idle per-node message rate at 4 groups
   must stay under [gate_msg_ratio] times the 1-group baseline. *)

open Common

(* Closed-loop clients scale with the group count (weak scaling, the
   usual scale-out methodology): enough that every cell's leaders are
   pipeline-bound — a fixed pool would cap offered load below what 16
   groups can absorb and misreport the scaling as sublinear.  Each
   cell's pool size is recorded in the JSON. *)
let threads_for groups = 64 * groups

let warmup = 0.5 *. s

let measure = 2.0 *. s

(* After the loaded window: drain in-flight writes, then watch the
   steady-state background traffic (heartbeats, lease renewals) — the
   window where cross-group coalescing and heartbeat suppression are the
   claim.  Long enough to average over the suppressed beat cadence
   (hb_suppress_limit beats can ride carriers before a leader must beat
   for itself). *)
let idle_drain = 1.0 *. s

let idle_measure = 8.0 *. s

(* Per-txn costs heavy enough that one leader's serial flush+commit
   pipeline caps well below what the closed loop offers — throughput
   scaling with group count then measures real parallelism, not client
   round-trip latency. *)
let cell_costs () =
  {
    Myraft.Params.default with
    Myraft.Params.flush_per_txn_us = 60.0;
    commit_per_txn_us = 60.0;
  }

let gate_tps_ratio = 2.5

let gate_msg_ratio = 2.0

type skew = Sk_uniform | Sk_zipf

let skew_name = function Sk_uniform -> "uniform" | Sk_zipf -> "zipf"

(* theta 0.8: hot rows hash to *some* shard, so skew shows up as load
   imbalance between groups rather than lock conflicts on one row. *)
let dist_of_skew = function
  | Sk_uniform -> Workload.Generator.Uniform
  | Sk_zipf -> Workload.Generator.Zipf 0.8

type cell = {
  c_groups : int;
  c_skew : skew;
  c_threads : int; (* closed-loop client pool for this cell *)
  c_committed : int; (* client writes acknowledged in the window *)
  c_tps : float; (* aggregate across all groups *)
  c_packets : int; (* coalesced network messages in the window *)
  c_frames : int; (* per-group protocol messages carried inside them *)
  c_frames_per_packet : float;
  c_node_msgs_per_s : float; (* packets / node / second, loaded window *)
  c_idle_node_msgs_per_s : float; (* packets / node / second, idle window *)
}

let run_cell ~groups ~skew ~seed =
  let multi = Shard.Multi.create ~seed ~params:(cell_costs ()) ~groups () in
  Shard.Multi.bootstrap multi;
  let backend = Shard.Multi.backend multi in
  let gen =
    Workload.Generator.create ~backend ~client_id:"shard-load" ~region:"r1"
      ~client_latency:(1.0 *. ms) ~key_space:50_000 ~key_dist:(dist_of_skew skew)
      ~value_mu:(log 300.0) ~value_sigma:0.2 ()
  in
  let threads = threads_for groups in
  Workload.Generator.start_closed_loop gen ~threads;
  Sim.Engine.run_for (Shard.Multi.engine multi) warmup;
  let stats = Workload.Generator.stats gen in
  let committed0 = stats.Workload.Generator.committed in
  let mux = Shard.Multi.mux multi in
  let packets0 = Shard.Mux.packets_sent mux in
  let frames0 = Shard.Mux.frames_sent mux in
  Sim.Engine.run_for (Shard.Multi.engine multi) measure;
  let committed = stats.Workload.Generator.committed - committed0 in
  let packets = Shard.Mux.packets_sent mux - packets0 in
  let frames = Shard.Mux.frames_sent mux - frames0 in
  Workload.Generator.stop gen;
  Sim.Engine.run_for (Shard.Multi.engine multi) idle_drain;
  let idle_packets0 = Shard.Mux.packets_sent mux in
  Sim.Engine.run_for (Shard.Multi.engine multi) idle_measure;
  let idle_packets = Shard.Mux.packets_sent mux - idle_packets0 in
  let n_nodes = List.length (Shard.Multi.member_ids multi) in
  let span_s = measure /. s in
  {
    c_groups = groups;
    c_skew = skew;
    c_threads = threads;
    c_committed = committed;
    c_tps = float_of_int committed /. span_s;
    c_packets = packets;
    c_frames = frames;
    c_frames_per_packet = float_of_int frames /. Float.max (float_of_int packets) 1.0;
    c_node_msgs_per_s = float_of_int packets /. float_of_int n_nodes /. span_s;
    c_idle_node_msgs_per_s =
      float_of_int idle_packets /. float_of_int n_nodes /. (idle_measure /. s);
  }

let json_of_cell c =
  Printf.sprintf
    "    {\"groups\": %d, \"skew\": \"%s\", \"threads\": %d, \"committed\": %d, \
     \"tps\": %.1f, \"packets\": %d, \"frames\": %d, \"frames_per_packet\": %.2f, \
     \"node_msgs_per_s\": %.1f, \"idle_node_msgs_per_s\": %.1f}"
    c.c_groups (skew_name c.c_skew) c.c_threads c.c_committed c.c_tps c.c_packets
    c.c_frames
    c.c_frames_per_packet c.c_node_msgs_per_s c.c_idle_node_msgs_per_s

let write_json ~path ~quick ~cells ~gate_pass ~g1 ~g4 =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"experiment\": \"shards\",\n";
  Printf.fprintf oc "  \"quick\": %b,\n" quick;
  Printf.fprintf oc "  \"cells\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map json_of_cell cells));
  Printf.fprintf oc
    "  \"gate\": {\"g1_tps\": %.1f, \"g4_tps\": %.1f, \"tps_ratio\": %.2f, \
     \"min_tps_ratio\": %g, \"g1_idle_node_msgs_per_s\": %.1f, \
     \"g4_idle_node_msgs_per_s\": %.1f, \"idle_msg_ratio\": %.2f, \"max_msg_ratio\": \
     %g, \"pass\": %b}\n"
    g1.c_tps g4.c_tps
    (g4.c_tps /. Float.max g1.c_tps 1e-9)
    gate_tps_ratio g1.c_idle_node_msgs_per_s g4.c_idle_node_msgs_per_s
    (g4.c_idle_node_msgs_per_s /. Float.max g1.c_idle_node_msgs_per_s 1e-9)
    gate_msg_ratio gate_pass;
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "results written to %s\n%!" path

let run () =
  let quick = !Common.quick in
  header
    (if quick then "Shards — multi-Raft scaling, CI cells (uniform)"
     else "Shards — multi-Raft scaling: group count x key-skew sweep");
  let group_counts = if quick then [ 1; 4 ] else [ 1; 4; 16 ] in
  let skews = if quick then [ Sk_uniform ] else [ Sk_uniform; Sk_zipf ] in
  Printf.printf
    "  closed loop, %d client threads per group, %.0f s measured per cell\n\n%!"
    (threads_for 1) (measure /. s);
  Printf.printf "  %-8s %-8s %8s %10s %10s %10s %10s %10s %13s %13s\n" "groups" "skew"
    "threads" "committed" "tps" "packets" "frames" "fr/pkt" "node_msgs/s" "idle_msgs/s";
  let cells =
    List.concat_map
      (fun skew ->
        List.map
          (fun groups ->
            let c = run_cell ~groups ~skew ~seed:73 in
            Printf.printf
              "  %-8d %-8s %8d %10d %10.0f %10d %10d %10.2f %13.0f %13.1f\n%!" groups
              (skew_name skew) c.c_threads c.c_committed c.c_tps c.c_packets c.c_frames
              c.c_frames_per_packet c.c_node_msgs_per_s c.c_idle_node_msgs_per_s;
            c)
          group_counts)
      skews
  in
  let find g = List.find (fun c -> c.c_groups = g && c.c_skew = Sk_uniform) cells in
  let g1 = find 1 and g4 = find 4 in
  let tps_ratio = g4.c_tps /. Float.max g1.c_tps 1e-9 in
  let msg_ratio =
    g4.c_idle_node_msgs_per_s /. Float.max g1.c_idle_node_msgs_per_s 1e-9
  in
  let gate_pass = tps_ratio >= gate_tps_ratio && msg_ratio < gate_msg_ratio in
  write_json ~path:"BENCH_SHARDS.json" ~quick ~cells ~gate_pass ~g1 ~g4;
  Printf.printf
    "\n  gate @ uniform: 4 groups = %.0f tps / %.1f idle msgs/node/s, 1 group = %.0f \
     tps / %.1f idle msgs/node/s — %.2fx tps (need >= %.1fx), %.2fx idle msgs (need < \
     %.1fx)\n%!"
    g4.c_tps g4.c_idle_node_msgs_per_s g1.c_tps g1.c_idle_node_msgs_per_s tps_ratio
    gate_tps_ratio msg_ratio gate_msg_ratio;
  if gate_pass then Printf.printf "  shards gate: PASS\n%!"
  else begin
    Printf.printf "  shards gate: FAIL\n%!";
    exit 1
  end
