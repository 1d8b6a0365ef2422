(* Chaos campaign: the adversarial attack families (clock drift/step,
   disk corruption, asymmetric partitions, election storms) run first in
   isolation — so a failure names its family — and then combined, each
   over fixed seeds, for CI to gate on zero invariant violations and
   every run reconverging.
   Clock-attack runs hand the Raft layer the drift margin its leases
   must absorb ([max_clock_drift] at the schedule's [drift_rate]); the
   unmargined variant of that scenario is the regression test in
   test/test_chaos.ml, not a CI gate.

     dune exec bench/main.exe -- chaos-campaign [--quick] *)

let steps () = if !Common.quick then 40 else 60

let seeds () = if !Common.quick then [ 211 ] else [ 211; 212; 213 ]

(* One spec per attack family, plus the combined mix.  Clock families
   need the drift margin; the others run with the default zero. *)
let families =
  [
    ( "clock",
      [ (Chaos.Schedule.Clock_drift, 1.0); (Chaos.Schedule.Clock_step, 1.0) ],
      0.05 );
    ("corrupt", [ (Chaos.Schedule.Disk_corrupt, 1.0) ], 0.0);
    ("asym-partition", [ (Chaos.Schedule.Asym_partition, 1.0) ], 0.0);
    ("storm", [ (Chaos.Schedule.Election_storm, 1.0) ], 0.0);
    ("campaign", Chaos.Schedule.campaign.Chaos.Schedule.mix, 0.05);
  ]

let run () =
  Common.header "Chaos campaign — adversarial attack families, isolated then combined";
  let total_violations = ref 0 in
  let snapshots = ref [] in
  let runs = ref 0 in
  List.iter
    (fun (name, mix, max_clock_drift) ->
      Printf.printf "\n%s attacks:\n" name;
      let spec = { Chaos.Schedule.campaign with Chaos.Schedule.mix } in
      (* auto_purge keeps compacting the primary's binlog mid-attack, so
         recovering peers routinely land behind the purge horizon and
         must be rescued by InstallSnapshot — every family now also
         exercises the snapshot path. *)
      let reports =
        Chaos.Nemesis.sweep ~spec ~max_clock_drift ~auto_purge:true ~seeds:(seeds ())
          ~steps:(steps ()) ()
      in
      List.iter
        (fun r ->
          incr runs;
          total_violations := !total_violations + List.length r.Chaos.Nemesis.r_violations;
          (if not r.Chaos.Nemesis.r_converged then begin
             incr total_violations;
             Printf.printf "  UNCONVERGED seed %d\n" r.Chaos.Nemesis.r_seed
           end);
          snapshots := r.Chaos.Nemesis.r_metrics :: !snapshots;
          Printf.printf "  %s\n%!" (Chaos.Nemesis.report_summary r))
        reports)
    families;
  Common.write_metrics_json (Obs.Metrics.merge_all ~node:"chaos-campaign" !snapshots);
  if !total_violations = 0 then
    Printf.printf "\nchaos campaign: %d runs, zero invariant violations\n%!" !runs
  else begin
    Printf.printf "\nchaos campaign: %d INVARIANT VIOLATIONS\n%!" !total_violations;
    exit 1
  end
