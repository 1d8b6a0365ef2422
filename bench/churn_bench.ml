(* A8: membership churn / evacuation / self-healing campaign.

   Every churn scenario (rolling region evacuation, replacement of a
   permanently dead voter while a region is partitioned away, membership
   churn under election storms, per-group churn on a sharded deployment)
   over a seed sweep, gated on zero invariant violations — including the
   logless-reconfig oracles — and full convergence.

     dune exec bench/main.exe -- churn *)

let seeds = [ 7; 8; 9; 10; 11 ]

let run () =
  Common.header "A8: membership churn + self-healing campaign";
  let reports = Chaos.Churn.sweep ~seeds () in
  let by_scenario = Hashtbl.create 8 in
  List.iter
    (fun r ->
      let key = r.Chaos.Churn.c_scenario in
      Hashtbl.replace by_scenario key
        (r :: (Option.value ~default:[] (Hashtbl.find_opt by_scenario key))))
    reports;
  Printf.printf "\n%-24s %8s %9s %13s %10s %10s\n" "scenario" "runs" "reconfigs"
    "replacements" "commits" "violations";
  Hashtbl.iter
    (fun scenario rs ->
      let sum f = List.fold_left (fun acc r -> acc + f r) 0 rs in
      Printf.printf "%-24s %8d %9d %13d %10d %10d\n" scenario (List.length rs)
        (sum (fun r -> r.Chaos.Churn.c_reconfigs))
        (sum (fun r -> List.length r.Chaos.Churn.c_replacements))
        (sum (fun r -> r.Chaos.Churn.c_workload_committed))
        (sum (fun r -> List.length r.Chaos.Churn.c_violations)))
    by_scenario;
  print_newline ();
  List.iter (fun r -> Printf.printf "  %s\n%!" (Chaos.Churn.report_summary r)) reports;
  let violations =
    List.concat_map (fun r -> r.Chaos.Churn.c_violations) reports
  in
  let unconverged =
    List.filter (fun r -> not r.Chaos.Churn.c_converged) reports
  in
  Common.write_metrics_json
    (Obs.Metrics.merge_all ~node:"churn"
       (List.map (fun r -> r.Chaos.Churn.c_metrics) reports));
  let json_of_report r =
    Printf.sprintf
      "    {\"scenario\": \"%s\", \"seed\": %d, \"reconfigs\": %d, \"replacements\": \
       %d, \"committed_index\": %d, \"client_commits\": %d, \"converged\": %b, \
       \"violations\": %d}"
      r.Chaos.Churn.c_scenario r.Chaos.Churn.c_seed r.Chaos.Churn.c_reconfigs
      (List.length r.Chaos.Churn.c_replacements)
      r.Chaos.Churn.c_committed r.Chaos.Churn.c_workload_committed
      r.Chaos.Churn.c_converged
      (List.length r.Chaos.Churn.c_violations)
  in
  Common.write_results "BENCH_CHURN.json" ~experiment:"churn"
    [
      ("runs", Common.json_rows json_of_report reports);
      ( "gate",
        Printf.sprintf
          "{\"runs\": %d, \"violations\": %d, \"unconverged\": %d, \"pass\": %b}"
          (List.length reports) (List.length violations) (List.length unconverged)
          (violations = [] && unconverged = []) );
    ];
  List.iter
    (fun v -> Printf.printf "  VIOLATION %s\n" (Chaos.Invariants.violation_to_string v))
    violations;
  List.iter
    (fun r ->
      Printf.printf "  UNCONVERGED %s seed %d\n" r.Chaos.Churn.c_scenario
        r.Chaos.Churn.c_seed)
    unconverged;
  if violations = [] && unconverged = [] then
    Printf.printf "\nchurn campaign: %d runs, zero invariant violations, all converged\n%!"
      (List.length reports)
  else begin
    Printf.printf "\nchurn campaign: %d violations, %d unconverged runs\n%!"
      (List.length violations) (List.length unconverged);
    exit 1
  end
