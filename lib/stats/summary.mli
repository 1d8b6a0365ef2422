(** Statistical summaries with uncertainty: bootstrap confidence
    intervals for means of small trial sets (error bars
    for the Table 2 downtime cells). *)

type ci = { point : float; lo : float; hi : float }

val ci_to_string : ?scale:float -> ci -> string

val mean : float array -> float

(** Nearest-rank percentile, [p] in [0, 100]. *)
val percentile : float array -> float -> float

(** Percentile-method bootstrap of the mean: 1000 resamples, 95%. *)
val mean_ci : rng:Sim.Rng.t -> float array -> ci

(** Extract a histogram's samples for bootstrap analysis. *)
val of_histogram : Histogram.t -> float array
