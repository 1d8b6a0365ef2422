(** One-way network delay models, in microseconds.

    Defaults are calibrated to the paper's setting: sub-millisecond
    round trips inside a region, tens of milliseconds across regions. *)

(** A delay drawn uniformly between [lo] and [lo +. span]; a zero span
    is the fixed delay [lo] and draws nothing. *)
type law = { lo : float; span : float }

(** A delay law per directed region pair. *)
type t

(** The law of messages from region [src] to region [dst]. *)
val law : t -> src:Topology.region -> dst:Topology.region -> law

(** In-region ~0.2-0.4 ms RTT; cross-region ~30-80 ms RTT, stable per
    region pair with small jitter. *)
val default : t

(** Fixed means, for unit tests. *)
val fixed : same:float -> cross:float -> t

(** Deterministic base one-way delay for a region pair, spread over
    [lo, hi] by a hash of the pair. *)
val pair_base : lo:float -> hi:float -> Topology.region -> Topology.region -> float

(** Override the delay for one specific region pair, both directions,
    with uniform(lo,hi) (e.g. pin clients at ~10 ms RTT from the primary
    region, §6.1). *)
val override : t -> region_a:Topology.region -> region_b:Topology.region -> lo:float -> hi:float -> t
