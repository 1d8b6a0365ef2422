(* Statistical summaries with uncertainty: bootstrap confidence
   intervals for means of small trial sets (the Table 2 downtime
   distributions come from tens of trials per cell, so point estimates
   deserve error bars). *)

type ci = { point : float; lo : float; hi : float }

let ci_to_string ?(scale = 1.0) ci =
  Printf.sprintf "%.0f [%.0f, %.0f]" (ci.point /. scale) (ci.lo /. scale) (ci.hi /. scale)

let mean values =
  match Array.length values with
  | 0 -> invalid_arg "Summary.mean: empty"
  | n -> Array.fold_left ( +. ) 0.0 values /. float_of_int n

let percentile values p =
  match Array.length values with
  | 0 -> invalid_arg "Summary.percentile: empty"
  | n ->
    let sorted = Array.copy values in
    Array.sort compare sorted;
    let rank = int_of_float (ceil (p /. 100.0 *. float_of_int n)) in
    sorted.(max 0 (min (n - 1) (rank - 1)))

(* Percentile-method bootstrap of the mean: 1000 resamples, 95%. *)
let mean_ci ~rng values =
  let resamples = 1000 and confidence = 0.95 in
  let n = Array.length values in
  if n = 0 then invalid_arg "Summary.mean_ci: empty";
  let point = mean values in
  if n = 1 then { point; lo = point; hi = point }
  else begin
    let stats =
      Array.init resamples (fun _ ->
          mean (Array.init n (fun _ -> values.(Sim.Rng.int rng n))))
    in
    Array.sort compare stats;
    let alpha = (1.0 -. confidence) /. 2.0 in
    let pick q =
      stats.(max 0 (min (resamples - 1) (int_of_float (q *. float_of_int resamples))))
    in
    { point; lo = pick alpha; hi = pick (1.0 -. alpha) }
  end

let of_histogram h =
  let values = Array.make (Histogram.count h) 0.0 in
  let i = ref 0 in
  Histogram.iter h (fun v ->
      values.(!i) <- v;
      incr i);
  values
