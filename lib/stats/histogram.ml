(* Latency histogram.

   Keeps every sample (growable float array) so percentiles are exact, and
   can render an ASCII log-bucketed histogram like the paper's Figure 5
   panels.  Sample counts in this repository stay well under a few million
   per experiment, so exact storage is the simple and honest choice. *)

type t = {
  mutable data : float array;
  mutable size : int;
  mutable sorted : bool;
}

let create () = { data = Array.make 64 0.0; size = 0; sorted = true }

let make_room t =
  if t.size = Array.length t.data then begin
    let data = Array.make (2 * t.size) 0.0 in
    Array.blit t.data 0 data 0 t.size;
    t.data <- data
  end

let record t v =
  make_room t;
  t.data.(t.size) <- v;
  t.size <- t.size + 1;
  t.sorted <- false

(* The two below compute their sample here, where it is stored flat: a
   float computed by the caller would be boxed to cross the module
   boundary. *)
let record_elapsed t now starts i =
  make_room t;
  t.data.(t.size) <- now -. Float.Array.get starts i;
  t.size <- t.size + 1;
  t.sorted <- false

let record_int t n =
  make_room t;
  t.data.(t.size) <- float_of_int n;
  t.size <- t.size + 1;
  t.sorted <- false

let count t = t.size

let is_empty t = t.size = 0

let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.sub t.data 0 t.size in
    Array.sort compare live;
    Array.blit live 0 t.data 0 t.size;
    t.sorted <- true
  end

(* Nearest-rank percentile; [p] in [0, 100]. *)
let percentile t p =
  if t.size = 0 then invalid_arg "Histogram.percentile: empty";
  ensure_sorted t;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.size)) in
  let idx = max 0 (min (t.size - 1) (rank - 1)) in
  t.data.(idx)

let min_value t =
  if t.size = 0 then invalid_arg "Histogram.min_value: empty";
  ensure_sorted t;
  t.data.(0)

let max_value t =
  if t.size = 0 then invalid_arg "Histogram.max_value: empty";
  ensure_sorted t;
  t.data.(t.size - 1)

let mean t =
  if t.size = 0 then invalid_arg "Histogram.mean: empty";
  let sum = ref 0.0 in
  for i = 0 to t.size - 1 do
    sum := !sum +. t.data.(i)
  done;
  !sum /. float_of_int t.size

let stddev t =
  if t.size < 2 then 0.0
  else begin
    let m = mean t in
    let sum = ref 0.0 in
    for i = 0 to t.size - 1 do
      let d = t.data.(i) -. m in
      sum := !sum +. (d *. d)
    done;
    sqrt (!sum /. float_of_int (t.size - 1))
  end

let merge a b =
  let t = create () in
  for i = 0 to a.size - 1 do
    record t a.data.(i)
  done;
  for i = 0 to b.size - 1 do
    record t b.data.(i)
  done;
  t

let iter t f =
  for i = 0 to t.size - 1 do
    f t.data.(i)
  done

(* Log-spaced buckets between min and max; returns (lo, hi, count) rows. *)
let buckets t ~n =
  if t.size = 0 then []
  else begin
    ensure_sorted t;
    let lo = max 1e-9 (min_value t) and hi = max_value t in
    let hi = if hi <= lo then lo *. 1.001 else hi in
    let ratio = (hi /. lo) ** (1.0 /. float_of_int n) in
    let counts = Array.make n 0 in
    for i = 0 to t.size - 1 do
      let v = max lo t.data.(i) in
      let b = int_of_float (log (v /. lo) /. log ratio) in
      let b = max 0 (min (n - 1) b) in
      counts.(b) <- counts.(b) + 1
    done;
    List.init n (fun i ->
        let blo = lo *. (ratio ** float_of_int i) in
        let bhi = lo *. (ratio ** float_of_int (i + 1)) in
        (blo, bhi, counts.(i)))
  end

(* Render as an ASCII histogram with one row per bucket, used by the
   figure-reproduction benches. *)
let render ?(buckets_n = 20) ?(width = 50) t =
  if t.size = 0 then "  (empty histogram)\n"
  else begin
    let rows = buckets t ~n:buckets_n in
    let maxc = List.fold_left (fun acc (_, _, c) -> max acc c) 1 rows in
    let buf = Buffer.create 1024 in
    List.iter
      (fun (lo, hi, c) ->
        let bar = String.make (c * width / maxc) '#' in
        Buffer.add_string buf
          (Printf.sprintf "  %10.1f - %10.1f us | %-6d %s\n" lo hi c bar))
      rows;
    Buffer.contents buf
  end

let summary_line ~label t =
  if t.size = 0 then Printf.sprintf "%s: no samples" label
  else
    Printf.sprintf "%s: n=%d avg=%.1f p50=%.1f p95=%.1f p99=%.1f max=%.1f" label t.size
      (mean t) (percentile t 50.0) (percentile t 95.0) (percentile t 99.0) (max_value t)
