(* Histogram / timeseries tests including qcheck properties. *)

let test_histogram_percentiles () =
  let h = Stats.Histogram.create () in
  for i = 1 to 100 do
    Stats.Histogram.record h (float_of_int i)
  done;
  Alcotest.(check (float 0.001)) "p50" 50.0 (Stats.Histogram.percentile h 50.0);
  Alcotest.(check (float 0.001)) "p95" 95.0 (Stats.Histogram.percentile h 95.0);
  Alcotest.(check (float 0.001)) "p99" 99.0 (Stats.Histogram.percentile h 99.0);
  Alcotest.(check (float 0.001)) "p100" 100.0 (Stats.Histogram.percentile h 100.0);
  Alcotest.(check (float 0.001)) "mean" 50.5 (Stats.Histogram.mean h);
  Alcotest.(check (float 0.001)) "min" 1.0 (Stats.Histogram.min_value h);
  Alcotest.(check (float 0.001)) "max" 100.0 (Stats.Histogram.max_value h)

let test_histogram_record_after_sort () =
  let h = Stats.Histogram.create () in
  Stats.Histogram.record h 5.0;
  ignore (Stats.Histogram.percentile h 50.0);
  Stats.Histogram.record h 1.0;
  Alcotest.(check (float 0.001)) "min after resort" 1.0 (Stats.Histogram.min_value h)

let test_histogram_merge () =
  let a = Stats.Histogram.create () and b = Stats.Histogram.create () in
  Stats.Histogram.record a 1.0;
  Stats.Histogram.record b 3.0;
  let m = Stats.Histogram.merge a b in
  Alcotest.(check int) "merged count" 2 (Stats.Histogram.count m);
  Alcotest.(check (float 0.001)) "merged mean" 2.0 (Stats.Histogram.mean m)

let test_histogram_buckets_cover_all () =
  let h = Stats.Histogram.create () in
  for i = 1 to 1000 do
    Stats.Histogram.record h (float_of_int (i * i))
  done;
  let rows = Stats.Histogram.buckets h ~n:20 in
  let total = List.fold_left (fun acc (_, _, c) -> acc + c) 0 rows in
  Alcotest.(check int) "bucket counts sum to n" 1000 total

let test_histogram_stddev () =
  let h = Stats.Histogram.create () in
  List.iter (Stats.Histogram.record h) [ 2.0; 4.0; 4.0; 4.0; 5.0; 5.0; 7.0; 9.0 ];
  (* classic example: population stddev 2; sample stddev ~2.138 *)
  let sd = Stats.Histogram.stddev h in
  if abs_float (sd -. 2.138) > 0.01 then Alcotest.failf "stddev: %f" sd

let prop_percentile_bounds =
  QCheck.Test.make ~name:"percentile within min/max" ~count:200
    QCheck.(pair (list_of_size Gen.(1 -- 200) (float_bound_exclusive 1e6)) (float_bound_inclusive 100.0))
    (fun (values, p) ->
      QCheck.assume (values <> []);
      let h = Stats.Histogram.create () in
      List.iter (fun v -> Stats.Histogram.record h (abs_float v)) values;
      let x = Stats.Histogram.percentile h p in
      x >= Stats.Histogram.min_value h && x <= Stats.Histogram.max_value h)

let prop_percentile_monotone =
  QCheck.Test.make ~name:"percentile monotone in p" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_exclusive 1e6))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Stats.Histogram.create () in
      List.iter (fun v -> Stats.Histogram.record h (abs_float v)) values;
      let ps = [ 1.0; 25.0; 50.0; 75.0; 99.0 ] in
      let xs = List.map (Stats.Histogram.percentile h) ps in
      let rec mono = function
        | a :: (b :: _ as rest) -> a <= b && mono rest
        | _ -> true
      in
      mono xs)

let prop_mean_between_min_max =
  QCheck.Test.make ~name:"mean within min/max" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_exclusive 1e6))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Stats.Histogram.create () in
      List.iter (fun v -> Stats.Histogram.record h (abs_float v)) values;
      let m = Stats.Histogram.mean h in
      m >= Stats.Histogram.min_value h -. 1e-9 && m <= Stats.Histogram.max_value h +. 1e-9)

(* The chunked histogram against a list of its samples in storage
   order, across at least three chunk boundaries (chunks hold 4,096
   samples): [n1] records, a sort (percentiles sort in place, so the
   model sorts too), then records past 12,288 samples in all, and a
   merge.  Count, iter order, percentiles, mean and stddev (summed in
   the same order, so equal to the bit), merge and buckets all match. *)
let model_percentile sorted p =
  let n = Array.length sorted in
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
  sorted.(max 0 (min (n - 1) (rank - 1)))

let model_buckets sorted ~n =
  let len = Array.length sorted in
  let lo = max 1e-9 sorted.(0) and hi = sorted.(len - 1) in
  let hi = if hi <= lo then lo *. 1.001 else hi in
  let ratio = (hi /. lo) ** (1.0 /. float_of_int n) in
  let counts = Array.make n 0 in
  Array.iter
    (fun v ->
      let b = int_of_float (log (max lo v /. lo) /. log ratio) in
      let b = max 0 (min (n - 1) b) in
      counts.(b) <- counts.(b) + 1)
    sorted;
  List.init n (fun i ->
      (lo *. (ratio ** float_of_int i), lo *. (ratio ** float_of_int (i + 1)), counts.(i)))

let agrees h model =
  let n = List.length model in
  let got = ref [] in
  Stats.Histogram.iter h (fun v -> got := v :: !got);
  let mean = List.fold_left ( +. ) 0.0 model /. float_of_int n in
  let stddev =
    if n < 2 then 0.0
    else
      sqrt
        (List.fold_left (fun acc v -> acc +. ((v -. mean) *. (v -. mean))) 0.0 model
        /. float_of_int (n - 1))
  in
  Stats.Histogram.count h = n
  && List.rev !got = model
  && Stats.Histogram.mean h = mean
  && Stats.Histogram.stddev h = stddev

let percentiles_agree h model =
  let sorted = Array.of_list (List.sort compare model) in
  List.for_all
    (fun p -> Stats.Histogram.percentile h p = model_percentile sorted p)
    [ 0.0; 0.1; 1.0; 25.0; 50.0; 75.0; 99.0; 99.9; 100.0 ]
  && Stats.Histogram.min_value h = sorted.(0)
  && Stats.Histogram.max_value h = sorted.(Array.length sorted - 1)
  && Stats.Histogram.buckets h ~n:20 = model_buckets sorted ~n:20

let prop_chunked_against_list =
  QCheck.Test.make ~name:"chunked samples = list model across chunk boundaries" ~count:10
    QCheck.(triple (int_range 1 6_000) (int_range 0 4_000) (int_range 0 1_000_000))
    (fun (n1, extra, seed) ->
      let rng = Random.State.make [| seed |] in
      (* repeats are common, so ties sort as they would in the field *)
      let draw n = List.init n (fun _ -> float_of_int (Random.State.int rng 5_000) /. 7.0) in
      let h = Stats.Histogram.create () in
      let first = draw n1 in
      List.iter (Stats.Histogram.record h) first;
      let ok1 = agrees h first && percentiles_agree h first in
      let sorted = List.sort compare first in
      let ok2 = agrees h sorted in
      let later = draw (12_289 - n1 + extra) in
      List.iter (Stats.Histogram.record h) later;
      let model = sorted @ later in
      let ok3 = agrees h model && percentiles_agree h model in
      let model = List.sort compare model in
      let other = draw 5_000 in
      let o = Stats.Histogram.create () in
      List.iter (Stats.Histogram.record o) other;
      let merged = Stats.Histogram.merge h o in
      ok1 && ok2 && ok3 && agrees h model
      && agrees merged (model @ other)
      && percentiles_agree merged (model @ other))

let test_timeseries_buckets () =
  let ts = Stats.Timeseries.create ~bucket_width:100.0 in
  Stats.Timeseries.record ts 10.0;
  Stats.Timeseries.record ts 50.0;
  Stats.Timeseries.record ts 150.0;
  Stats.Timeseries.record ts 450.0;
  let rows = Stats.Timeseries.series ts in
  Alcotest.(check int) "row count with gaps filled" 5 (List.length rows);
  Alcotest.(check (list int)) "counts" [ 2; 1; 0; 0; 1 ] (List.map snd rows);
  Alcotest.(check int) "total" 4 (Stats.Timeseries.total ts)

let test_timeseries_mean_rate () =
  let ts = Stats.Timeseries.create ~bucket_width:10.0 in
  List.iter (Stats.Timeseries.record ts) [ 1.0; 2.0; 11.0; 12.0; 21.0; 22.0 ];
  Alcotest.(check (float 0.001)) "mean rate" 2.0 (Stats.Timeseries.mean_rate_per_bucket ts)

(* Regression: downsampling used floor division, so a low-rate series
   (below one event per bucket on average) rendered as an entirely
   blank bar even though activity happened in every group. *)
let test_timeseries_render_low_rate_visible () =
  let a = Stats.Timeseries.create ~bucket_width:1.0 in
  (* one event every third bucket across ~200 buckets: every
     downsampled group is nonzero but averages below 1 *)
  for i = 0 to 66 do
    Stats.Timeseries.record a ((3.0 *. float_of_int i) +. 0.5)
  done;
  let b = Stats.Timeseries.create ~bucket_width:1.0 in
  for _ = 1 to 100 do
    Stats.Timeseries.record b 0.5
  done;
  Stats.Timeseries.record b 199.5;
  let out = Stats.Timeseries.render_pair ~label_a:"sparse" a ~label_b:"spiky" b ~width:10 in
  match String.split_on_char '|' out with
  | _ :: bar :: _ ->
    Alcotest.(check bool) "low-rate activity never renders blank" false
      (String.contains bar ' ')
  | _ -> Alcotest.fail "unexpected render_pair format"

(* ----- bootstrap summaries ----- *)

let test_summary_point_estimates () =
  let values = Array.init 100 (fun i -> float_of_int (i + 1)) in
  Alcotest.(check (float 0.001)) "mean" 50.5 (Stats.Summary.mean values);
  Alcotest.(check (float 0.001)) "p95" 95.0 (Stats.Summary.percentile values 95.0)

let test_summary_ci_brackets_point () =
  let rng = Sim.Rng.of_int 5 in
  let values = Array.init 50 (fun i -> float_of_int ((i * 13 mod 50) + 1)) in
  let ci = Stats.Summary.mean_ci ~rng values in
  Alcotest.(check bool) "lo <= point <= hi" true
    (ci.Stats.Summary.lo <= ci.Stats.Summary.point
    && ci.Stats.Summary.point <= ci.Stats.Summary.hi);
  Alcotest.(check bool) "interval nondegenerate" true
    (ci.Stats.Summary.hi > ci.Stats.Summary.lo)

let test_summary_ci_narrows_with_n () =
  let rng = Sim.Rng.of_int 6 in
  let sample n = Array.init n (fun i -> float_of_int (i mod 10)) in
  let width n =
    let ci = Stats.Summary.mean_ci ~rng (sample n) in
    ci.Stats.Summary.hi -. ci.Stats.Summary.lo
  in
  Alcotest.(check bool) "larger n, tighter CI" true (width 400 < width 20)

let test_summary_single_sample () =
  let rng = Sim.Rng.of_int 7 in
  let ci = Stats.Summary.mean_ci ~rng [| 42.0 |] in
  Alcotest.(check (float 0.001)) "degenerate CI" 42.0 ci.Stats.Summary.lo;
  Alcotest.(check (float 0.001)) "degenerate CI hi" 42.0 ci.Stats.Summary.hi

let prop_summary_percentile_matches_histogram =
  QCheck.Test.make ~name:"summary percentile = histogram percentile" ~count:200
    QCheck.(list_of_size Gen.(1 -- 100) (float_bound_exclusive 1e6))
    (fun values ->
      QCheck.assume (values <> []);
      let h = Stats.Histogram.create () in
      List.iter (fun v -> Stats.Histogram.record h (abs_float v)) values;
      let arr = Stats.Summary.of_histogram h in
      List.for_all
        (fun p -> Stats.Summary.percentile arr p = Stats.Histogram.percentile h p)
        [ 1.0; 50.0; 95.0; 99.0 ])

let suites =
  [
    ( "stats.histogram",
      [
        Alcotest.test_case "percentiles" `Quick test_histogram_percentiles;
        Alcotest.test_case "record after sort" `Quick test_histogram_record_after_sort;
        Alcotest.test_case "merge" `Quick test_histogram_merge;
        Alcotest.test_case "buckets cover all samples" `Quick test_histogram_buckets_cover_all;
        Alcotest.test_case "stddev" `Quick test_histogram_stddev;
        QCheck_alcotest.to_alcotest prop_percentile_bounds;
        QCheck_alcotest.to_alcotest prop_percentile_monotone;
        QCheck_alcotest.to_alcotest prop_mean_between_min_max;
        QCheck_alcotest.to_alcotest prop_chunked_against_list;
      ] );
    ( "stats.summary",
      [
        Alcotest.test_case "point estimates" `Quick test_summary_point_estimates;
        Alcotest.test_case "CI brackets the point" `Quick test_summary_ci_brackets_point;
        Alcotest.test_case "CI narrows with n" `Quick test_summary_ci_narrows_with_n;
        Alcotest.test_case "single sample degenerate" `Quick test_summary_single_sample;
        QCheck_alcotest.to_alcotest prop_summary_percentile_matches_histogram;
      ] );
    ( "stats.timeseries",
      [
        Alcotest.test_case "bucketing with gaps" `Quick test_timeseries_buckets;
        Alcotest.test_case "mean rate" `Quick test_timeseries_mean_rate;
        Alcotest.test_case "low-rate render stays visible" `Quick
          test_timeseries_render_low_rate_visible;
      ] );
  ]
