(* Consistency-tiered read bench: served-read throughput and latency as
   a function of the consistency level, the read fraction, the client's
   region and the quorum round-trip time, on the §6.1 topology.

     dune exec bench/main.exe -- read            # full sweep
     dune exec bench/main.exe -- read --quick    # CI cells only

   The leader is mysql1 in r1; under the Single_region_dynamic quorum a
   ReadIndex confirmation round needs an ack from one of the two r1
   logtailers, so the mysql1<->lt1a and mysql1<->lt1b links set the
   quorum RTT a leaseless linearizable read must pay.  With the leader
   lease on, a valid lease serves the same read locally — the rounds
   disappear and throughput decouples from the quorum RTT.  Follower
   cells (client and target in r3) show forwarding cost vs local
   bounded/eventual serving.

   Writes BENCH_READ.json and, for CI, gates the 10 ms-RTT read-mostly
   cells: lease-served linearizable reads must clear [gate_ratio] times
   the leaseless ReadIndex throughput, and the lease cell's minor-heap
   words per served read (every word of its measured window, its 10%
   writes included) must not regress more than 10% over the budget
   recorded in the committed BENCH_READ.json; a run that improves on it
   ratchets the budget down. *)

open Common

let threads = 256

let warmup = 1.0 *. s

let measure = 4.0 *. s

let gate_rtt_ms = 10.0

let gate_ratio = 5.0

let gate_ratio_read = 0.9

type spec = {
  s_name : string;  (** cell label, e.g. "lin+lease" *)
  s_lease : bool;
  s_level : Read.Level.t;
}

let lin_lease = { s_name = "lin+lease"; s_lease = true; s_level = Read.Level.Linearizable }

let lin_quorum =
  { s_name = "lin+quorum"; s_lease = false; s_level = Read.Level.Linearizable }

let all_specs =
  [
    lin_lease;
    lin_quorum;
    { s_name = "ryw"; s_lease = true; s_level = Read.Level.Read_your_writes None };
    (* one heartbeat interval: tight enough to reject a lagging replica,
       loose enough to absorb one cross-region propagation delay *)
    {
      s_name = "bounded:600ms";
      s_lease = true;
      s_level = Read.Level.Bounded_staleness (600.0 *. ms);
    };
    { s_name = "eventual"; s_lease = true; s_level = Read.Level.Eventual };
  ]

type cell = {
  c_name : string;
  c_ratio : float;
  c_region : string;
  c_target : string;
  c_rtt_ms : float;
  c_reads_ok : int;
  c_read_tps : float;
  c_rejected : int;
  c_p50_us : float;
  c_p99_us : float;
  c_write_tps : float;
  c_lease_served : int;
  c_quorum_served : int;
  c_words_per_read : float; (* minor words of the measured window per served read *)
}

let run_cell ~spec ~read_ratio ~region ~target ~rtt_ms ~seed =
  let params =
    {
      Myraft.Params.default with
      Myraft.Params.raft =
        { Myraft.Params.default.Myraft.Params.raft with
          Raft.Node.use_leader_lease = spec.s_lease
        };
    }
  in
  let cluster =
    Myraft.Cluster.create ~seed ~params ~replicaset:"rs-read" ~members:(ab_members ()) ()
  in
  (* One-way latency = RTT/2 on both quorum links. *)
  let one_way = rtt_ms /. 2.0 *. ms in
  Myraft.Cluster.set_link_latency cluster ~a:"mysql1" ~b:"lt1a" ~latency:one_way;
  Myraft.Cluster.set_link_latency cluster ~a:"mysql1" ~b:"lt1b" ~latency:one_way;
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"read-load" ~region
      ~client_latency:(100.0 *. us) ~value_mu:(log 300.0) ~value_sigma:0.2 ~read_ratio
      ~read_level:spec.s_level ~read_target:target ()
  in
  Workload.Generator.start_closed_loop gen ~threads;
  Myraft.Cluster.run_for cluster warmup;
  let stats = Workload.Generator.stats gen in
  let reads0 = stats.Workload.Generator.reads_ok in
  let committed0 = stats.Workload.Generator.committed in
  let (), alloc = with_alloc_stats (fun () -> Myraft.Cluster.run_for cluster measure) in
  let reads_ok = stats.Workload.Generator.reads_ok - reads0 in
  let committed = stats.Workload.Generator.committed - committed0 in
  Workload.Generator.stop gen;
  let snap = Myraft.Cluster.metrics_snapshot cluster in
  let lat = stats.Workload.Generator.read_latencies in
  {
    c_name = spec.s_name;
    c_ratio = read_ratio;
    c_region = region;
    c_target = target;
    c_rtt_ms = rtt_ms;
    c_reads_ok = reads_ok;
    c_read_tps = float_of_int reads_ok /. (measure /. s);
    c_rejected = stats.Workload.Generator.reads_rejected;
    c_p50_us = pct lat 50.0;
    c_p99_us = pct lat 99.0;
    c_write_tps = float_of_int committed /. (measure /. s);
    c_lease_served = Obs.Metrics.counter_of snap "read.lease_served";
    c_quorum_served = Obs.Metrics.counter_of snap "read.quorum_served";
    c_words_per_read = words_per_txn alloc ~txns:reads_ok;
  }

let print_cell c =
  Printf.printf "  %-13s %-6g %-4s %-8s %-7g %10d %10.0f %8d %10.2f %10.2f %9.0f\n%!"
    c.c_name c.c_ratio c.c_region c.c_target c.c_rtt_ms c.c_reads_ok c.c_read_tps
    c.c_rejected (c.c_p50_us /. ms) (c.c_p99_us /. ms) c.c_write_tps

let print_header () =
  Printf.printf "  %-13s %-6s %-4s %-8s %-7s %10s %10s %8s %10s %10s %9s\n" "level"
    "ratio" "src" "target" "rtt_ms" "reads_ok" "read_tps" "rej" "p50_ms" "p99_ms"
    "write_tps"

let json_of_cell c =
  Printf.sprintf
    "    {\"level\": \"%s\", \"read_ratio\": %g, \"region\": \"%s\", \"target\": \
     \"%s\", \"rtt_ms\": %g, \"reads_ok\": %d, \"read_tps\": %.1f, \"rejected\": %d, \
     \"p50_us\": %.1f, \"p99_us\": %.1f, \"write_tps\": %.1f, \"lease_served\": %d, \
     \"quorum_served\": %d}"
    c.c_name c.c_ratio c.c_region c.c_target c.c_rtt_ms c.c_reads_ok c.c_read_tps
    c.c_rejected c.c_p50_us c.c_p99_us c.c_write_tps c.c_lease_served c.c_quorum_served

let write_json ~path ~quick ~cells ~gate_pass ~lease ~quorum ~alloc_budget =
  write_results path ~experiment:"read"
    [
      ("quick", string_of_bool quick);
      ("cells", json_rows json_of_cell cells);
      ( "gate",
        Printf.sprintf
          "{\"rtt_ms\": %g, \"read_ratio\": %g, \"lease_tps\": %.1f, \
           \"quorum_tps\": %.1f, \"ratio\": %.2f, \"min_ratio\": %g, \"pass\": %b, \
           \"words_per_read\": %.1f, \"words_per_read_budget\": %.1f}"
          gate_rtt_ms gate_ratio_read lease.c_read_tps quorum.c_read_tps
          (lease.c_read_tps /. Float.max quorum.c_read_tps 1e-9)
          gate_ratio gate_pass lease.c_words_per_read
          (ratchet alloc_budget lease.c_words_per_read) );
    ]

let run () =
  let quick = !Common.quick in
  let path = "BENCH_READ.json" in
  let alloc_budget = recorded_budget ~path ~field:"words_per_read_budget" in
  header
    (if quick then "Read path — lease vs ReadIndex, CI cells (10 ms quorum RTT)"
     else "Read path — consistency level x read-ratio x region x quorum-RTT sweep");
  Printf.printf "  closed loop, %d client threads, %.0f s measured per cell\n\n%!" threads
    (measure /. s);
  print_header ();
  let seed = 73 in
  let cell ~spec ~read_ratio ~region ~target ~rtt_ms =
    let c = run_cell ~spec ~read_ratio ~region ~target ~rtt_ms ~seed in
    print_cell c;
    c
  in
  (* the CI pair: read-mostly linearizable traffic at the leader, lease
     on vs off, quorum RTT pinned at 10 ms *)
  let gate_lease =
    cell ~spec:lin_lease ~read_ratio:gate_ratio_read ~region:"r1" ~target:"mysql1"
      ~rtt_ms:gate_rtt_ms
  in
  let gate_quorum =
    cell ~spec:lin_quorum ~read_ratio:gate_ratio_read ~region:"r1" ~target:"mysql1"
      ~rtt_ms:gate_rtt_ms
  in
  let gate_cells = [ gate_lease; gate_quorum ] in
  let cells =
    if quick then gate_cells
    else begin
      (* every tier, leader-local and follower-local, read-mostly *)
      let level_sweep =
        List.concat_map
          (fun spec ->
            List.map
              (fun (region, target) ->
                if spec == lin_lease || spec == lin_quorum then
                  (* already measured at the leader in the gate pair *)
                  if region = "r1" then None
                  else
                    Some
                      (cell ~spec ~read_ratio:gate_ratio_read ~region ~target
                         ~rtt_ms:gate_rtt_ms)
                else
                  Some
                    (cell ~spec ~read_ratio:gate_ratio_read ~region ~target
                       ~rtt_ms:gate_rtt_ms))
              [ ("r1", "mysql1"); ("r3", "mysql3") ])
          all_specs
        |> List.filter_map Fun.id
      in
      (* how the write fraction loads the lease vs the rounds *)
      let ratio_sweep =
        List.concat_map
          (fun read_ratio ->
            List.map
              (fun spec ->
                cell ~spec ~read_ratio ~region:"r1" ~target:"mysql1" ~rtt_ms:gate_rtt_ms)
              [ lin_lease; lin_quorum ])
          [ 0.5; 0.99 ]
      in
      (* quorum-RTT sensitivity: the leaseless rounds pay it, the lease
         does not *)
      let rtt_sweep =
        List.concat_map
          (fun rtt_ms ->
            List.map
              (fun spec ->
                cell ~spec ~read_ratio:gate_ratio_read ~region:"r1" ~target:"mysql1"
                  ~rtt_ms)
              [ lin_lease; lin_quorum ])
          [ 2.0; 30.0 ]
      in
      gate_cells @ level_sweep @ ratio_sweep @ rtt_sweep
    end
  in
  let lease = List.nth gate_cells 0 and quorum = List.nth gate_cells 1 in
  let ratio = lease.c_read_tps /. Float.max quorum.c_read_tps 1e-9 in
  let gate_pass = ratio >= gate_ratio in
  write_json ~path ~quick ~cells ~gate_pass ~lease ~quorum ~alloc_budget;
  Printf.printf
    "\n  gate @ %.0f ms quorum RTT: lease = %.0f reads/s, readindex = %.0f reads/s \
     (%.2fx, need >= %.1fx)\n%!"
    gate_rtt_ms lease.c_read_tps quorum.c_read_tps ratio gate_ratio;
  Printf.printf "  alloc gate @ lin+lease: %.1f minor words per served read%s\n%!"
    lease.c_words_per_read (budget_note alloc_budget);
  let alloc_pass = within_budget alloc_budget lease.c_words_per_read in
  if gate_pass && alloc_pass then Printf.printf "  read gate: PASS\n%!"
  else begin
    Printf.printf "  read gate: FAIL%s%s\n%!"
      (if gate_pass then "" else " [lease vs readindex]")
      (if alloc_pass then "" else " [alloc regression]");
    exit 1
  end
