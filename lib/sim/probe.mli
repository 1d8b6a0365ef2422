(** Generic write-availability probe.

    Issues a probe operation every [interval]; the embedder's [issue]
    closure performs the actual write and reports the outcome (or never
    calls back — the timeout then records a failure).  Downtime is
    measured client-side as the largest gap between consecutive
    successes: the metric behind the paper's Table 2. *)

type t

(** [start engine ~issue] begins probing.  [issue ~on_outcome] must
    eventually call [on_outcome ok] (extra calls are ignored). *)
val start :
  ?interval:float -> ?timeout:float -> Engine.t -> issue:(on_outcome:(bool -> unit) -> unit) -> t

val stop : t -> unit

val successes : t -> int

val failures : t -> int

(** Largest gap between consecutive successful commits within the
    window, in microseconds. *)
val max_downtime : t -> start_time:float -> end_time:float -> float
