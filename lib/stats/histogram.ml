(* Latency histogram.

   Keeps every sample (in flat float chunks) so percentiles are exact, and
   can render an ASCII log-bucketed histogram like the paper's Figure 5
   panels.  Sample counts in this repository stay well under a few million
   per experiment, so exact storage is the simple and honest choice. *)

(* Samples live in fixed [chunk_size]-slot chunks, laid out like
   [Vec]: sample i sits at slot [i land chunk_mask] of chunk
   [i lsr chunk_bits].  Growth appends a chunk and never copies a filled
   one or leaves an old copy behind in the major heap, as a doubling
   flat array does.  Only chunk 0 starts small and doubles up to
   [chunk_size], so a short-lived histogram costs a few words.  The
   directory grows from one entry straight to [dir_min] entries, more
   than the minor heap's largest block, so no growth of it is a minor
   allocation: a recording hot path counts no words for it.  A
   [float Vec.t] would box every sample through its polymorphic
   accessors, so the layout is repeated here over flat float chunks. *)
let chunk_bits = 12

let chunk_size = 1 lsl chunk_bits

let chunk_mask = chunk_size - 1

let dir_min = 512

type t = {
  mutable chunks : float array array; (* directory; unused entries share chunk 0 *)
  mutable nchunks : int;
  mutable size : int;
  mutable sorted : bool;
}

let create () = { chunks = [| Array.make 64 0.0 |]; nchunks = 1; size = 0; sorted = true }

let[@inline] get t i =
  Array.unsafe_get (Array.unsafe_get t.chunks (i lsr chunk_bits)) (i land chunk_mask)

let[@inline] set t i v =
  Array.unsafe_set (Array.unsafe_get t.chunks (i lsr chunk_bits)) (i land chunk_mask) v

(* Make room for sample [t.size]: double chunk 0 while it is short,
   otherwise open a fresh chunk (growing the directory when full). *)
let grow t =
  let c0 = t.chunks.(0) in
  if t.size < chunk_size then begin
    let c = Array.make (min chunk_size (2 * Array.length c0)) 0.0 in
    Array.blit c0 0 c 0 t.size;
    t.chunks.(0) <- c
  end
  else begin
    if t.nchunks = Array.length t.chunks then begin
      let dir = Array.make (max dir_min (2 * t.nchunks)) c0 in
      Array.blit t.chunks 0 dir 0 t.nchunks;
      t.chunks <- dir
    end;
    t.chunks.(t.nchunks) <- Array.make chunk_size 0.0;
    t.nchunks <- t.nchunks + 1
  end

let[@inline] make_room t =
  let i = t.size in
  let c = i lsr chunk_bits in
  if c >= t.nchunks || i land chunk_mask >= Array.length (Array.unsafe_get t.chunks c) then
    grow t

let record t v =
  make_room t;
  set t t.size v;
  t.size <- t.size + 1;
  t.sorted <- false

(* The two below compute their sample here, where it is stored flat: a
   float computed by the caller would be boxed to cross the module
   boundary. *)
let record_elapsed t now starts i =
  make_room t;
  set t t.size (now -. Float.Array.get starts i);
  t.size <- t.size + 1;
  t.sorted <- false

let record_int t n =
  make_room t;
  set t t.size (float_of_int n);
  t.size <- t.size + 1;
  t.sorted <- false

let count t = t.size

let is_empty t = t.size = 0

(* Sorts the samples in place: [iter] then yields the sorted run, and
   later records append after it. *)
let ensure_sorted t =
  if not t.sorted then begin
    let live = Array.make t.size 0.0 in
    for i = 0 to t.size - 1 do
      live.(i) <- get t i
    done;
    Array.sort compare live;
    for i = 0 to t.size - 1 do
      set t i live.(i)
    done;
    t.sorted <- true
  end

(* Nearest-rank percentile; [p] in [0, 100]. *)
let percentile t p =
  if t.size = 0 then invalid_arg "Histogram.percentile: empty";
  ensure_sorted t;
  let rank = int_of_float (ceil (p /. 100.0 *. float_of_int t.size)) in
  let idx = max 0 (min (t.size - 1) (rank - 1)) in
  get t idx

let min_value t =
  if t.size = 0 then invalid_arg "Histogram.min_value: empty";
  ensure_sorted t;
  get t 0

let max_value t =
  if t.size = 0 then invalid_arg "Histogram.max_value: empty";
  ensure_sorted t;
  get t (t.size - 1)

let mean t =
  if t.size = 0 then invalid_arg "Histogram.mean: empty";
  let sum = ref 0.0 in
  for i = 0 to t.size - 1 do
    sum := !sum +. get t i
  done;
  !sum /. float_of_int t.size

let stddev t =
  if t.size < 2 then 0.0
  else begin
    let m = mean t in
    let sum = ref 0.0 in
    for i = 0 to t.size - 1 do
      let d = get t i -. m in
      sum := !sum +. (d *. d)
    done;
    sqrt (!sum /. float_of_int (t.size - 1))
  end

let merge a b =
  let t = create () in
  for i = 0 to a.size - 1 do
    record t (get a i)
  done;
  for i = 0 to b.size - 1 do
    record t (get b i)
  done;
  t

let iter t f =
  for i = 0 to t.size - 1 do
    f (get t i)
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
      let v = max lo (get t i) in
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
