(** Deterministic pseudo-random number generator (SplitMix64).

    Every stochastic decision in the simulator flows through one of these
    generators, so a run is fully determined by its seed. *)

type t

(** [create seed] makes a generator from a 64-bit seed. *)
val create : int64 -> t

(** [of_int seed] is [create (Int64.of_int seed)]. *)
val of_int : int -> t

(** Next raw 64-bit draw. *)
val next_int64 : t -> int64

(** [split t] derives an independent stream; draws from the child do not
    perturb the parent's sequence. *)
val split : t -> t

(** Uniform float in [0, 1). *)
val float : t -> float

(** [int t bound] is uniform in [0, bound). Requires [bound > 0]. *)
val int : t -> int -> int

val bool : t -> bool

(** Uniform float in [lo, hi). *)
val uniform : t -> lo:float -> hi:float -> float

(** Exponential with the given mean. *)
val exponential : t -> mean:float -> float

(** Lognormal parameterised by the underlying normal's [mu]/[sigma]; used
    for heavy-tailed operational delays. *)
val lognormal : t -> mu:float -> sigma:float -> float

(** Uniform choice from a non-empty array. *)
val pick : t -> 'a array -> 'a
