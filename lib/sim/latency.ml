(* One-way network delay models, in microseconds.

   The defaults are calibrated to the paper's setting: sub-millisecond
   round trips inside a region, tens of milliseconds across regions. *)

type t = {
  same_region : Rng.t -> float;
  cross_region : src:Topology.region -> dst:Topology.region -> Rng.t -> float;
}

(* Deterministic pseudo-distance between two region names so that a given
   region pair always sees the same base latency without explicit
   configuration.  Spread one-way delays over [lo, hi]. *)
let pair_base ~lo ~hi src dst =
  let a, b = if src < dst then (src, dst) else (dst, src) in
  let h = Hashtbl.hash (a, b) in
  let frac = float_of_int (h mod 1000) /. 1000.0 in
  lo +. ((hi -. lo) *. frac)

(* One region pair's cross-region draw parameters: its base delay and
   jitter bound, boxed once so a draw passes them on as they are. *)
type pair = { p_src : string; p_dst : string; p_base : float; p_jitter : float }

let pair_slots = 64

(* A cache of [pair]s keyed on the physical region strings of a link
   (a network hands every send on a link the same two strings), so a
   draw neither hashes the pair nor boxes its base again.  Region
   strings are immutable, so a physical match is a match by value; a
   miss recomputes into the next slot in turn.  [pair_base] is pure, so
   every draw is the one it replaces.

   [default] is shared by every network, so domains may draw from one
   cache at once.  A slot holds a whole [pair] and a hit checks both of
   its strings, so a slot another domain overwrites only costs a miss;
   and [filled] and [next] are written from values already clamped into
   the array, so a lost update cannot send the scan or the store past
   its end. *)
let cached_cross_region ~lo ~hi =
  let slots = Array.make pair_slots { p_src = ""; p_dst = ""; p_base = 0.0; p_jitter = 0.0 } in
  let filled = ref 0 and next = ref 0 in
  let rec find src dst i =
    if i >= !filled then begin
      let base = pair_base ~lo ~hi src dst in
      let p = { p_src = src; p_dst = dst; p_base = base; p_jitter = base *. 0.05 } in
      let slot = !next in
      slots.(slot) <- p;
      next := (slot + 1) mod pair_slots;
      filled := min pair_slots (!filled + 1);
      p
    end
    else
      let p = slots.(i) in
      if p.p_src == src && p.p_dst == dst then p else find src dst (i + 1)
  in
  fun ~src ~dst rng ->
    let p = find src dst 0 in
    p.p_base +. Rng.uniform rng ~lo:0.0 ~hi:p.p_jitter

let default =
  {
    (* ~0.2-0.4ms RTT in-region *)
    same_region = (fun rng -> Rng.uniform rng ~lo:90.0 ~hi:180.0);
    (* ~30-80ms RTT cross-region, stable per pair, small jitter *)
    cross_region = cached_cross_region ~lo:15_000.0 ~hi:40_000.0;
  }

(* A model with fixed means, useful in unit tests. *)
let fixed ~same ~cross =
  { same_region = (fun _ -> same); cross_region = (fun ~src:_ ~dst:_ _ -> cross) }

(* Override the delay for one specific region pair (e.g. pin clients at
   ~10 ms RTT from the primary region, §6.1). *)
let override t ~region_a ~region_b ~lo ~hi =
  let cross ~src ~dst rng =
    if (src = region_a && dst = region_b) || (src = region_b && dst = region_a) then
      Rng.uniform rng ~lo ~hi
    else t.cross_region ~src ~dst rng
  in
  { t with cross_region = cross }

let one_way t ~src_region ~dst_region rng =
  if src_region = dst_region then t.same_region rng
  else t.cross_region ~src:src_region ~dst:dst_region rng
