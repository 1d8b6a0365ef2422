(* One-way network delay models, in microseconds.

   The defaults are calibrated to the paper's setting: sub-millisecond
   round trips inside a region, tens of milliseconds across regions. *)

(* A delay drawn uniformly from [lo, lo + span); a zero span is the
   fixed delay [lo] and draws nothing.  An all-float record, so a link
   that holds one reads both bounds unboxed. *)
type law = { lo : float; span : float }

type t = src:Topology.region -> dst:Topology.region -> law

let law (t : t) ~src ~dst = t ~src ~dst

(* Deterministic pseudo-distance between two region names so that a given
   region pair always sees the same base latency without explicit
   configuration.  Spread one-way delays over [lo, hi]. *)
let pair_base ~lo ~hi src dst =
  let a, b = if src < dst then (src, dst) else (dst, src) in
  let h = Hashtbl.hash (a, b) in
  let frac = float_of_int (h mod 1000) /. 1000.0 in
  lo +. ((hi -. lo) *. frac)

(* ~0.2-0.4ms RTT in-region *)
let in_region = { lo = 90.0; span = 90.0 }

let default ~src ~dst =
  if src = dst then in_region
  else
    (* ~30-80ms RTT cross-region, stable per pair, jitter up to 5% *)
    let base = pair_base ~lo:15_000.0 ~hi:40_000.0 src dst in
    { lo = base; span = base *. 0.05 }

(* A model with fixed means, useful in unit tests. *)
let fixed ~same ~cross =
  let same = { lo = same; span = 0.0 } and cross = { lo = cross; span = 0.0 } in
  fun ~src ~dst -> if src = dst then same else cross

(* Override the delay for one specific region pair, both directions
   (e.g. pin clients at ~10 ms RTT from the primary region, §6.1). *)
let override t ~region_a ~region_b ~lo ~hi =
  let pinned = { lo; span = hi -. lo } in
  fun ~src ~dst ->
    if (src = region_a && dst = region_b) || (src = region_b && dst = region_a) then
      pinned
    else t ~src ~dst
