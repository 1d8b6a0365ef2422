(* Parallel-apply bench: replica apply throughput and lag as a function
   of worker lanes, key skew and per-transaction apply cost, on the §6.1
   topology.

     dune exec bench/main.exe -- apply            # full sweep
     dune exec bench/main.exe -- apply --quick    # CI cells only

   The leader is mysql1 in r1; mysql2 (r2) is the observed follower.  A
   serial applier (workers = 1) executes row events one at a time, so
   its apply rate caps near 1e6 / apply_per_txn_us and the follower
   falls behind whenever the primary commits faster than that.
   Writeset-scheduled lanes overlap execution of independent
   transactions; skewed keys shrink the schedulable set and show the
   dependency-stall cost.

   Writes BENCH_APPLY.json and, for CI, gates on the uniform-skew
   default-cost cells: 4 lanes must apply at least [gate_ratio] times
   the serial rate, and parallel lag must stay bounded where serial lag
   diverges.  The 4-lane cell also records the whole cluster's minor-heap
   words per txn the follower applied in the window; that figure must
   not regress more than 10% over the budget recorded in the committed
   BENCH_APPLY.json, and a run that improves on it ratchets the budget
   down. *)

open Common

(* 256 closed-loop threads a millisecond from the primary push commit
   throughput far past the serial apply cap (1e6 / apply_per_txn_us)
   without the event count of the full production A/B load; short
   windows keep the 20-member topology affordable for a CI gate. *)
let threads = 256

let warmup = 0.5 *. s

let measure = 2.0 *. s

let gate_ratio = 2.5

let gate_lag_bound = 2_000 (* entries; parallel follower stays this close *)

type skew = Sk_uniform | Sk_zipf

let skew_name = function Sk_uniform -> "uniform" | Sk_zipf -> "zipf"

(* theta 0.6 keeps the hottest row well under the per-row commit ceiling
   (one lock holder per pipeline round trip) so the *primary* stays
   healthy and the skew cost shows up where this bench looks: dependency
   chains on the replica scheduler.  Hotter exponents melt the primary
   into lock-conflict retries instead. *)
let dist_of_skew = function
  | Sk_uniform -> Workload.Generator.Uniform
  | Sk_zipf -> Workload.Generator.Zipf 0.6

type cell = {
  c_workers : int;
  c_skew : skew;
  c_cost_us : float;
  c_committed : int; (* primary-side commits in the window *)
  c_applied : int; (* follower engine commits in the window *)
  c_applied_tps : float;
  c_lag_end : int; (* leader commit_index - follower applied_through *)
  c_dep_stalls : int;
  c_words_per_applied : float; (* minor words per applied txn, whole cluster *)
}

let run_cell ~workers ~skew ~cost_us ~seed =
  let params =
    {
      Myraft.Params.default with
      Myraft.Params.applier_workers = workers;
      apply_per_txn_us = cost_us;
    }
  in
  let cluster =
    Myraft.Cluster.create ~seed ~params ~replicaset:"rs-apply" ~members:(ab_members ())
      ()
  in
  (* Pin the replication legs toward the observed follower low (direct
     and via its region's proxy logtailers): mysql2 acts as a close
     standby, so the sliding window delivers entries faster than any
     applier drains them and the *applier* is the measured constraint —
     with cross-region WAN latency the follower is replication-bound and
     every worker count looks identical. *)
  List.iter
    (fun (a, b) ->
      Myraft.Cluster.set_link_latency cluster ~a ~b ~latency:(500.0 *. us))
    [
      ("mysql1", "mysql2");
      ("mysql1", "lt2a");
      ("mysql1", "lt2b");
      ("lt2a", "mysql2");
      ("lt2b", "mysql2");
    ];
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  let follower =
    match Myraft.Cluster.server cluster "mysql2" with
    | Some s -> s
    | None -> failwith "mysql2 missing from the paper topology"
  in
  let applier = Myraft.Server.applier follower in
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"apply-load" ~region:"r1"
      ~client_latency:(1.0 *. ms) ~key_space:50_000 ~key_dist:(dist_of_skew skew)
      ~value_mu:(log 300.0) ~value_sigma:0.2 ()
  in
  Workload.Generator.start_closed_loop gen ~threads;
  Myraft.Cluster.run_for cluster warmup;
  let stats = Workload.Generator.stats gen in
  let committed0 = stats.Workload.Generator.committed in
  let applied0 = Myraft.Applier.applied_txns applier in
  let (), alloc = with_alloc_stats (fun () -> Myraft.Cluster.run_for cluster measure) in
  let committed = stats.Workload.Generator.committed - committed0 in
  let applied = Myraft.Applier.applied_txns applier - applied0 in
  Workload.Generator.stop gen;
  let leader_commit =
    match Myraft.Cluster.raft_of cluster "mysql1" with
    | Some raft -> Raft.Node.commit_index raft
    | None -> 0
  in
  {
    c_workers = workers;
    c_skew = skew;
    c_cost_us = cost_us;
    c_committed = committed;
    c_applied = applied;
    c_applied_tps = float_of_int applied /. (measure /. s);
    c_lag_end = leader_commit - Myraft.Server.applied_through follower;
    c_dep_stalls = Myraft.Applier.dep_stalls applier;
    c_words_per_applied = words_per_txn alloc ~txns:applied;
  }

let json_of_cell c =
  Printf.sprintf
    "    {\"workers\": %d, \"skew\": \"%s\", \"apply_cost_us\": %g, \"committed\": %d, \
     \"applied\": %d, \"applied_tps\": %.1f, \"lag_end\": %d, \"dep_stalls\": %d}"
    c.c_workers (skew_name c.c_skew) c.c_cost_us c.c_committed c.c_applied
    c.c_applied_tps c.c_lag_end c.c_dep_stalls

let write_json ~path ~quick ~cells ~gate_pass ~w1 ~w4 ~alloc_budget =
  write_results path ~experiment:"apply"
    [
      ("quick", string_of_bool quick);
      ("cells", json_rows json_of_cell cells);
      ( "gate",
        Printf.sprintf
          "{\"w1_tps\": %.1f, \"w4_tps\": %.1f, \"ratio\": %.2f, \"min_ratio\": %g, \
           \"w1_lag\": %d, \"w4_lag\": %d, \"lag_bound\": %d, \"pass\": %b, \
           \"w4_words_per_applied_txn\": %.1f, \"w4_words_per_applied_txn_budget\": %.1f}"
          w1.c_applied_tps w4.c_applied_tps
          (w4.c_applied_tps /. Float.max w1.c_applied_tps 1e-9)
          gate_ratio w1.c_lag_end w4.c_lag_end gate_lag_bound gate_pass
          w4.c_words_per_applied
          (ratchet alloc_budget w4.c_words_per_applied) );
    ]

let run () =
  let quick = !Common.quick in
  header
    (if quick then "Apply — parallel replica apply, CI cells (uniform, default cost)"
     else "Apply — parallel replica apply: workers x key-skew x apply-cost sweep");
  let path = "BENCH_APPLY.json" in
  let alloc_budget = recorded_budget ~path ~field:"w4_words_per_applied_txn_budget" in
  let worker_counts = if quick then [ 1; 4 ] else [ 1; 2; 4; 8 ] in
  let skews = if quick then [ Sk_uniform ] else [ Sk_uniform; Sk_zipf ] in
  let costs = if quick then [ 60.0 ] else [ 60.0; 240.0 ] in
  Printf.printf "  closed loop, %d client threads, %.0f s measured per cell\n\n%!"
    threads (measure /. s);
  Printf.printf "  %-8s %-8s %-8s %10s %10s %12s %10s %10s\n" "workers" "skew"
    "cost_us" "committed" "applied" "applied_tps" "lag_end" "stalls";
  let cells =
    List.concat_map
      (fun cost_us ->
        List.concat_map
          (fun skew ->
            List.map
              (fun workers ->
                let c = run_cell ~workers ~skew ~cost_us ~seed:73 in
                Printf.printf "  %-8d %-8s %-8g %10d %10d %12.0f %10d %10d\n%!"
                  workers (skew_name skew) cost_us c.c_committed c.c_applied
                  c.c_applied_tps c.c_lag_end c.c_dep_stalls;
                c)
              worker_counts)
          skews)
      costs
  in
  let find w =
    List.find
      (fun c -> c.c_workers = w && c.c_skew = Sk_uniform && c.c_cost_us = 60.0)
      cells
  in
  let w1 = find 1 and w4 = find 4 in
  let ratio = w4.c_applied_tps /. Float.max w1.c_applied_tps 1e-9 in
  (* serial must demonstrably fall behind for the comparison to mean
     anything; parallel must stay within the bound *)
  let gate_pass =
    ratio >= gate_ratio && w4.c_lag_end <= gate_lag_bound && w1.c_lag_end > gate_lag_bound
  in
  write_json ~path ~quick ~cells ~gate_pass ~w1 ~w4 ~alloc_budget;
  Printf.printf
    "\n  gate @ uniform/60us: 4 lanes = %.0f tps (lag %d), serial = %.0f tps (lag %d) \
     — %.2fx, need >= %.1fx, parallel lag <= %d, serial lag > %d\n%!"
    w4.c_applied_tps w4.c_lag_end w1.c_applied_tps w1.c_lag_end ratio gate_ratio
    gate_lag_bound gate_lag_bound;
  Printf.printf "  alloc gate @ 4 lanes: %.0f minor words per applied txn%s\n%!"
    w4.c_words_per_applied (budget_note alloc_budget);
  let alloc_pass = within_budget alloc_budget w4.c_words_per_applied in
  if gate_pass && alloc_pass then Printf.printf "  apply gate: PASS\n%!"
  else begin
    Printf.printf "  apply gate: FAIL%s%s\n%!"
      (if gate_pass then "" else " [apply rate or lag]")
      (if alloc_pass then "" else " [alloc regression]");
    exit 1
  end
