(* Deterministic pseudo-random number generator (SplitMix64).

   Every stochastic decision in the simulator flows through one of these
   generators so that a run is fully determined by its seed.  [split]
   derives an independent stream, which lets each node own a private
   generator whose draws do not perturb its peers'. *)

(* The 64-bit state lives unboxed in 8 bytes: a mutable [int64] field
   would be a pointer to a fresh box after every draw.  [next] is inlined
   into each draw, so its intermediate values stay unboxed too and a draw
   allocates only the result it hands across the module boundary. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_ne t 0 seed;
  t

let of_int seed = create (Int64.of_int seed)

let[@inline] next t =
  let z = Int64.add (Bytes.get_int64_ne t 0) golden_gamma in
  Bytes.set_int64_ne t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t = next t

let split t = create (next t)

(* Uniform float in [0, 1): use the top 53 bits. *)
let[@inline] float t =
  let bits = Int64.shift_right_logical (next t) 11 in
  Int64.to_float bits /. 9007199254740992.0

(* Uniform int in [0, bound). *)
let int t bound =
  assert (bound > 0);
  (* mask to 62 bits so the value fits OCaml's native int non-negatively *)
  let r = Int64.to_int (Int64.logand (next t) 0x3FFF_FFFF_FFFF_FFFFL) in
  r mod bound

let bool t = Int64.logand (next t) 1L = 1L

(* Uniform float in [lo, hi). *)
let uniform t ~lo ~hi = lo +. ((hi -. lo) *. float t)

(* Exponential with the given mean. *)
let exponential t ~mean =
  let u = float t in
  let u = if u <= 0.0 then epsilon_float else u in
  -.mean *. log u

(* Standard normal via Box-Muller. *)
let normal_std t =
  let u1 = max epsilon_float (float t) in
  let u2 = float t in
  sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2)

(* Lognormal parameterised by the mean/stddev of the underlying normal.
   Used for heavy-tailed operational delays (automation queueing etc.). *)
let lognormal t ~mu ~sigma = exp (mu +. (sigma *. normal_std t))

let pick t arr =
  assert (Array.length arr > 0);
  arr.(int t (Array.length arr))
