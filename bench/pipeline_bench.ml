(* Windowed-replication bench: committed-transaction throughput as a
   function of the per-peer send window and the quorum round-trip time,
   on the §6.1 topology.

     dune exec bench/main.exe -- pipeline            # full sweep
     dune exec bench/main.exe -- pipeline --quick    # CI cells only

   The leader is mysql1 in r1; under the Single_region_dynamic quorum a
   data commit needs one of the two r1 logtailers, so the mysql1<->lt1a
   and mysql1<->lt1b links set the replication RTT.  Stop-and-wait
   (window 1) caps committed throughput near one AppendEntries batch per
   round trip; the sliding window keeps the pipe full.

   Every cell runs inside a [Gc.quick_stat] delta, so the JSON also
   records the real allocator cost of the closed loop — minor-heap words
   per committed transaction is the figure the hot-path work of the
   zero-allocation pass is gated on.

   Writes BENCH_PIPELINE.json and, for CI, gates on:
   - the 10 ms cells: window 8 must commit at least [gate_ratio] times
     what window 1 does and clear an absolute throughput floor;
   - the 2 ms window-8 cell: throughput must clear [gate_floor_tps_2ms]
     (the pre-hot-path-pass baseline times [gate_speedup_2ms]);
   - allocation: minor-heap words per committed txn in the 2 ms window-8
     cell must not regress more than 10% over the budget recorded in the
     committed BENCH_PIPELINE.json, and neither may the words promoted to
     the major heap per committed txn (bookkeeping that outlives a minor
     GC). *)

open Common

let threads = 768

let warmup = 1.0 *. s

(* BENCH_MEASURE_S overrides the per-cell measure time (in seconds) for
   faster local iteration; CI always runs the 4 s default. *)
let measure =
  match Sys.getenv_opt "BENCH_MEASURE_S" with
  | Some v -> float_of_string v *. s
  | None -> 4.0 *. s

let gate_rtt_ms = 10.0

let gate_ratio = 2.0

let gate_floor_tps = 3000.0

(* Hot-path gate (2 ms RTT, window 8): the pre-pass baseline was
   79,913 tps; the serialize-once flush path must hold at least a 1.3x
   speedup over it. *)
let baseline_tps_2ms = 79_913.0

let gate_speedup_2ms = 1.3

let gate_floor_tps_2ms = baseline_tps_2ms *. gate_speedup_2ms

(* Allocation regression budgets: >10% growth of minor-heap words, or of
   promoted words, per committed txn over the recorded value fails the
   gate. *)
let alloc_slack = 1.10

type cell = {
  c_window : int;
  c_rtt_ms : float;
  c_committed : int;
  c_tps : float;
  c_p50_us : float;
  c_p99_us : float;
  c_retransmits : int;
  c_nacks : int;
  c_alloc : Common.alloc_stats;
  c_words_per_txn : float;
  c_promoted_per_txn : float;
}

let run_cell ~window ~rtt_ms ~seed =
  let params =
    {
      Myraft.Params.default with
      Myraft.Params.raft =
        { Myraft.Params.default.Myraft.Params.raft with
          Raft.Node.max_inflight_aes = window
        };
    }
  in
  let cluster =
    Myraft.Cluster.create ~seed ~params ~replicaset:"rs-pipeline"
      ~members:(ab_members ()) ()
  in
  (* One-way latency = RTT/2 on both quorum links. *)
  let one_way = rtt_ms /. 2.0 *. ms in
  Myraft.Cluster.set_link_latency cluster ~a:"mysql1" ~b:"lt1a" ~latency:one_way;
  Myraft.Cluster.set_link_latency cluster ~a:"mysql1" ~b:"lt1b" ~latency:one_way;
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"pipe-load" ~region:"r1"
      ~client_latency:(100.0 *. us) ~value_mu:(log 300.0) ~value_sigma:0.2 ()
  in
  Workload.Generator.start_closed_loop gen ~threads;
  Myraft.Cluster.run_for cluster warmup;
  let stats = Workload.Generator.stats gen in
  let committed0 = stats.Workload.Generator.committed in
  let (), alloc =
    Common.with_alloc_stats (fun () -> Myraft.Cluster.run_for cluster measure)
  in
  let committed = stats.Workload.Generator.committed - committed0 in
  Workload.Generator.stop gen;
  let snap = Myraft.Cluster.metrics_snapshot cluster in
  (* BENCH_DEBUG dumps the merged metrics snapshot per cell — handy when
     chasing a regression down to a specific counter. *)
  (match Sys.getenv_opt "BENCH_DEBUG" with
  | Some _ -> print_string (Obs.Metrics.render snap)
  | None -> ());
  let lat = stats.Workload.Generator.latencies in
  {
    c_window = window;
    c_rtt_ms = rtt_ms;
    c_committed = committed;
    c_tps = float_of_int committed /. (measure /. s);
    c_p50_us = pct lat 50.0;
    c_p99_us = pct lat 99.0;
    c_retransmits = Obs.Metrics.counter_of snap "raft.retransmits";
    c_nacks = Obs.Metrics.counter_of snap "raft.nacks";
    c_alloc = alloc;
    c_words_per_txn = Common.words_per_txn alloc ~txns:committed;
    c_promoted_per_txn =
      (if committed <= 0 then 0.0
       else alloc.Common.al_promoted_words /. float_of_int committed);
  }

let json_of_cell c =
  Printf.sprintf
    "    {\"window\": %d, \"rtt_ms\": %g, \"committed\": %d, \"tps\": %.1f, \
     \"p50_us\": %.1f, \"p99_us\": %.1f, \"retransmits\": %d, \"nacks\": %d, %s}"
    c.c_window c.c_rtt_ms c.c_committed c.c_tps c.c_p50_us c.c_p99_us c.c_retransmits
    c.c_nacks
    (Common.alloc_json c.c_alloc ~txns:c.c_committed)

(* An alloc budget ([field]) previously recorded in BENCH_PIPELINE.json
   (the committed file, i.e. the state of the world before this run).
   None when the file or field is missing — first run, no gate. *)
let recorded_budget ~path ~field =
  match In_channel.with_open_text path In_channel.input_all with
  | exception _ -> None
  | body ->
    (* substring scan; the file is machine-written by this bench *)
    let key = Printf.sprintf "\"%s\": " field in
    let rec find i =
      if i + String.length key > String.length body then None
      else if String.sub body i (String.length key) = key then begin
        let j = i + String.length key in
        let k = ref j in
        while
          !k < String.length body
          && (match body.[!k] with '0' .. '9' | '.' | '-' | 'e' -> true | _ -> false)
        do
          incr k
        done;
        float_of_string_opt (String.sub body j (!k - j))
      end
      else find (i + 1)
    in
    find 0

(* The budget a run records: the recorded one, ratcheted down to this
   run's figure when it improved. *)
let ratchet budget figure =
  match budget with Some b -> Float.min b figure | None -> figure

let write_json ~path ~quick ~cells ~gate_pass ~w1 ~w8 ~hot ~alloc_budget ~promoted_budget =
  let oc = open_out path in
  Printf.fprintf oc "{\n";
  Printf.fprintf oc "  \"experiment\": \"pipeline\",\n";
  Printf.fprintf oc "  \"quick\": %b,\n" quick;
  Printf.fprintf oc "  \"cells\": [\n%s\n  ],\n"
    (String.concat ",\n" (List.map json_of_cell cells));
  Printf.fprintf oc
    "  \"gate\": {\"rtt_ms\": %g, \"w1_tps\": %.1f, \"w8_tps\": %.1f, \"ratio\": %.2f, \
     \"min_ratio\": %g, \"floor_tps\": %g, \"pass\": %b},\n"
    gate_rtt_ms w1.c_tps w8.c_tps
    (w8.c_tps /. Float.max w1.c_tps 1e-9)
    gate_ratio gate_floor_tps gate_pass;
  Printf.fprintf oc
    "  \"hot_path_gate\": {\"rtt_ms\": 2, \"window\": 8, \"tps\": %.1f, \
     \"baseline_tps\": %g, \"speedup\": %.2f, \"min_speedup\": %g, \
     \"words_per_txn\": %.1f, \"words_per_txn_budget\": %.1f, \
     \"promoted_words_per_txn\": %.1f, \"promoted_words_per_txn_budget\": %.1f}\n"
    hot.c_tps baseline_tps_2ms
    (hot.c_tps /. baseline_tps_2ms)
    gate_speedup_2ms hot.c_words_per_txn
    (ratchet alloc_budget hot.c_words_per_txn)
    hot.c_promoted_per_txn
    (ratchet promoted_budget hot.c_promoted_per_txn);
  Printf.fprintf oc "}\n";
  close_out oc;
  Printf.printf "results written to %s\n%!" path

let run () =
  let quick = !Common.quick in
  header
    (if quick then "Pipeline — windowed replication, CI cells (2 + 10 ms RTT)"
     else "Pipeline — windowed replication: window x quorum-RTT sweep");
  let windows = if quick then [ 1; 8 ] else [ 1; 2; 8; 32 ] in
  let rtts = if quick then [ 2.0; 10.0 ] else [ 2.0; 10.0; 30.0 ] in
  let path = "BENCH_PIPELINE.json" in
  let alloc_budget = recorded_budget ~path ~field:"words_per_txn_budget" in
  let promoted_budget = recorded_budget ~path ~field:"promoted_words_per_txn_budget" in
  Printf.printf "  closed loop, %d client threads, %.0f s measured per cell\n\n%!"
    threads (measure /. s);
  Printf.printf "  %-8s %-8s %10s %10s %10s %10s %6s %6s %10s\n" "window" "rtt_ms"
    "committed" "tps" "p50_ms" "p99_ms" "rtx" "nack" "words/txn";
  let cells =
    List.concat_map
      (fun rtt_ms ->
        List.map
          (fun window ->
            let c = run_cell ~window ~rtt_ms ~seed:71 in
            Printf.printf "  %-8d %-8g %10d %10.0f %10.2f %10.2f %6d %6d %10.0f\n%!"
              window rtt_ms c.c_committed c.c_tps (c.c_p50_us /. ms) (c.c_p99_us /. ms)
              c.c_retransmits c.c_nacks c.c_words_per_txn;
            c)
          windows)
      rtts
  in
  let find w rtt =
    List.find (fun c -> c.c_window = w && c.c_rtt_ms = rtt) cells
  in
  let w1 = find 1 gate_rtt_ms and w8 = find 8 gate_rtt_ms in
  let hot = find 8 2.0 in
  let ratio = w8.c_tps /. Float.max w1.c_tps 1e-9 in
  let gate_pass = ratio >= gate_ratio && w8.c_tps >= gate_floor_tps in
  write_json ~path ~quick ~cells ~gate_pass ~w1 ~w8 ~hot ~alloc_budget ~promoted_budget;
  Printf.printf
    "\n  gate @ %.0f ms RTT: window 8 = %.0f tps, window 1 = %.0f tps (%.2fx, need \
     >= %.1fx and >= %.0f tps)\n%!"
    gate_rtt_ms w8.c_tps w1.c_tps ratio gate_ratio gate_floor_tps;
  let budget_note = function
    | Some b -> Printf.sprintf " (budget %.0f, +10%% slack)" b
    | None -> " (no recorded budget; first run)"
  in
  Printf.printf
    "  hot-path gate @ 2 ms RTT: window 8 = %.0f tps (%.2fx baseline %.0f, need >= \
     %.1fx); %.0f minor words/txn%s; %.0f promoted words/txn%s\n%!"
    hot.c_tps
    (hot.c_tps /. baseline_tps_2ms)
    baseline_tps_2ms gate_speedup_2ms hot.c_words_per_txn (budget_note alloc_budget)
    hot.c_promoted_per_txn (budget_note promoted_budget);
  let hot_pass = hot.c_tps >= gate_floor_tps_2ms in
  let within budget figure =
    match budget with Some b -> figure <= b *. alloc_slack | None -> true
  in
  let alloc_pass = within alloc_budget hot.c_words_per_txn in
  let promoted_pass = within promoted_budget hot.c_promoted_per_txn in
  if gate_pass && hot_pass && alloc_pass && promoted_pass then
    Printf.printf "  pipeline gate: PASS\n%!"
  else begin
    Printf.printf "  pipeline gate: FAIL%s%s%s%s\n%!"
      (if gate_pass then "" else " [window ratio]")
      (if hot_pass then "" else " [hot-path tps]")
      (if alloc_pass then "" else " [alloc regression]")
      (if promoted_pass then "" else " [promotion regression]");
    exit 1
  end
