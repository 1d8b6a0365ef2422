(* Chaos smoke: a short nemesis seed sweep over both quorum modes, plus
   a membership-churn leg (classic + sharded scenarios), for CI to gate
   on zero invariant violations and every run reconverging.

     dune exec bench/main.exe -- chaos-smoke *)

let seeds = [ 101; 102; 103; 104; 105 ]

(* One seed over every churn scenario keeps the smoke gate fast; the
   nightly churn campaign sweeps more. *)
let churn_seeds = [ 101 ]

(* Multi-Raft mode is heavier (4 groups, one checker each), so the
   sharded leg sweeps fewer seeds. *)
let sharded_seeds = [ 101; 102; 103 ]

let sharded_groups = 4

let steps = 60

let run () =
  Common.header "Chaos smoke — nemesis seed sweep with invariant checking";
  let total_violations = ref 0 in
  let runs = ref 0 in
  let snapshots = ref [] in
  let tally reports =
    List.iter
      (fun r ->
        incr runs;
        total_violations := !total_violations + List.length r.Chaos.Nemesis.r_violations;
        (if not r.Chaos.Nemesis.r_converged then begin
           (* non-convergence gates the smoke run like a violation *)
           incr total_violations;
           Printf.printf "  UNCONVERGED seed %d\n" r.Chaos.Nemesis.r_seed
         end);
        snapshots := r.Chaos.Nemesis.r_metrics :: !snapshots;
        Printf.printf "  %s\n%!" (Chaos.Nemesis.report_summary r))
      reports
  in
  List.iter
    (fun quorum ->
      Printf.printf "\n%s quorum:\n" (Chaos.Nemesis.quorum_name quorum);
      tally (Chaos.Nemesis.sweep ~quorum ~seeds ~steps ()))
    [ Raft.Quorum.Single_region_dynamic; Raft.Quorum.Majority ];
  Printf.printf "\n%d-shard multi-Raft (flexi quorum):\n" sharded_groups;
  tally (Chaos.Nemesis.sweep ~shards:sharded_groups ~seeds:sharded_seeds ~steps ());
  Printf.printf "\nmembership churn (classic + sharded):\n";
  List.iter
    (fun r ->
      incr runs;
      total_violations := !total_violations + List.length r.Chaos.Churn.c_violations;
      (if not r.Chaos.Churn.c_converged then begin
         (* non-convergence gates the smoke run like a violation *)
         incr total_violations;
         Printf.printf "  UNCONVERGED %s seed %d\n" r.Chaos.Churn.c_scenario
           r.Chaos.Churn.c_seed
       end);
      snapshots := r.Chaos.Churn.c_metrics :: !snapshots;
      Printf.printf "  %s\n%!" (Chaos.Churn.report_summary r))
    (Chaos.Churn.sweep ~seeds:churn_seeds ());
  Common.write_metrics_json (Obs.Metrics.merge_all ~node:"chaos-smoke" !snapshots);
  if !total_violations = 0 then
    Printf.printf "\nchaos smoke: %d runs, zero invariant violations\n%!" !runs
  else begin
    Printf.printf "\nchaos smoke: %d INVARIANT VIOLATIONS\n%!" !total_violations;
    exit 1
  end
