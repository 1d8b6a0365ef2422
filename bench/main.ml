(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation plus the DESIGN.md ablations.

     dune exec bench/main.exe               # run everything
     dune exec bench/main.exe -- table2     # one experiment
     dune exec bench/main.exe -- --list     # what exists

   Experiment ids follow DESIGN.md: table1, fig5a (5a+5b), fig5c (5c+5d),
   table2, proxy, mock, flexi, micro. *)

let table1 () =
  Common.header "Table 1 — roles in MyRaft compared to the prior setup";
  print_string (Myraft.Roles.render ())

let fig5ab () = ignore (Fig5.production ())

let fig5cd () = ignore (Fig5.sysbench ())

let table2 () = ignore (Table2.run ())

let proxy () = ignore (Ablations.proxy ())

let hotspot () = ignore (Ablations.hotspot ())

let mock () = ignore (Ablations.mock ())

let flexi () = ignore (Ablations.flexi ())

let groupcommit () = ignore (Ablations.group_commit ())

let stepdown () = ignore (Ablations.stepdown ())

let micro () = Micro.run ()

let chaos_smoke () = Chaos_smoke.run ()

let chaos_campaign () = Chaos_campaign.run ()

let pipeline () = Pipeline_bench.run ()

let read_bench () = Read_bench.run ()

let apply_bench () = Apply_bench.run ()

let snapshot_bench () = Snapshot_bench.run ()

let shards_bench () = Shards_bench.run ()

let churn_bench () = Churn_bench.run ()

let proxy_scale () = Proxy_bench.run ()

let retained () = Retained_bench.run ()

let experiments =
  [
    ("table1", "Table 1: role mapping", table1);
    ("fig5a", "Fig 5a/5b: production A/B latency + throughput", fig5ab);
    ("fig5c", "Fig 5c/5d: sysbench latency + throughput", fig5cd);
    ("table2", "Table 2: promotion/failover downtime", table2);
    ("proxy", "P1: proxying bandwidth ablation", proxy);
    ("hotspot", "P2: leader NIC hotspot relief", hotspot);
    ("mock", "A1: mock election ablation", mock);
    ("flexi", "A2: FlexiRaft quorum mode ablation", flexi);
    ("groupcommit", "A3: group-commit pipeline scaling", groupcommit);
    ("stepdown", "A4: automatic step-down extension", stepdown);
    ("micro", "M1: Bechamel micro-benchmarks", micro);
    ("chaos-smoke", "C1: nemesis seed sweep, gate on zero invariant violations", chaos_smoke);
    ( "chaos-campaign",
      "A6: adversarial attack families (clock/corrupt/asym/storm), gate on zero violations",
      chaos_campaign );
    ("pipeline", "P3: windowed replication window x RTT sweep, gate on w8 >= 2x w1", pipeline);
    ("read", "R1: tiered read path sweep, gate on lease >= 5x readindex reads", read_bench);
    ( "apply",
      "A5: parallel apply workers x skew x cost sweep, gate on 4 lanes >= 2.5x serial",
      apply_bench );
    ( "snapshot",
      "A7: purged-log rejoin, gate on InstallSnapshot >= 5x faster than full replay",
      snapshot_bench );
    ( "shards",
      "S1: multi-Raft groups x skew sweep, gate on 4 groups >= 2.5x tps at < 2x msgs",
      shards_bench );
    ( "churn",
      "A8: membership churn / evacuation / self-healing campaign, gate on zero violations",
      churn_bench );
    ( "proxy-scale",
      "P4: 8-region x 104-replica fan-out, gate on tree saving >= 3x cross-region bytes",
      proxy_scale );
    ("retained", "M2: heap words a committed txn retains, at two run lengths", retained);
  ]

let run_all () =
  Printf.printf "MyRaft reproduction bench harness — running all experiments\n%!";
  List.iter (fun (_, _, f) -> f ()) experiments;
  Printf.printf "\nAll experiments complete.\n%!"

(* Peel [--metrics-json FILE] and [--quick] off the argument list (they
   apply to any experiment that honours them); the rest are experiment
   ids. *)
let rec extract_flags acc = function
  | "--metrics-json" :: path :: rest ->
    Common.metrics_json := Some path;
    extract_flags acc rest
  | "--quick" :: rest ->
    Common.quick := true;
    extract_flags acc rest
  | "--metrics-json" :: [] ->
    Printf.eprintf "--metrics-json needs a FILE argument\n";
    exit 1
  | x :: rest -> extract_flags (x :: acc) rest
  | [] -> List.rev acc

let () =
  match extract_flags [] (List.tl (Array.to_list Sys.argv)) with
  | [] -> run_all ()
  | [ "--list" ] ->
    List.iter (fun (id, descr, _) -> Printf.printf "%-8s %s\n" id descr) experiments
  | ids ->
    List.iter
      (fun id ->
        match List.find_opt (fun (eid, _, _) -> eid = id) experiments with
        | Some (_, _, f) -> f ()
        | None ->
          Printf.eprintf "unknown experiment %S; try --list\n" id;
          exit 1)
      ids
