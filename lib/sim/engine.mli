(** Discrete-event simulation engine.

    Virtual time is a float measured in {e microseconds} (the unit the
    paper reports commit latencies in).  The engine owns a single event
    queue; events scheduled for the same instant fire in scheduling
    order, keeping runs deterministic. *)

type t

type handle

(** Unit helpers: [us = 1.0], [ms = 1_000.0], [s = 1_000_000.0]. *)
val us : float

val ms : float

val s : float

val create : ?seed:int -> unit -> t

(** Current virtual time in microseconds. *)
val now : t -> float

(** The engine's root RNG; split it rather than drawing from it in
    component code. *)
val rng : t -> Rng.t

(** Number of events executed so far. *)
val executed_events : t -> int

(** [schedule t ~delay fn] runs [fn] after [delay] microseconds of
    virtual time.  Returns a handle usable with {!cancel}. *)
val schedule : t -> delay:float -> (unit -> unit) -> handle

(** Schedule at an absolute virtual time (clamped to now). *)
val schedule_at : t -> time:float -> (unit -> unit) -> handle

(** [schedule_key t ~key fn] runs [fn] at exactly virtual time [key]
    ([>= now t]).  Unlike {!schedule_at} the key is used as given rather
    than re-derived through a delay, so a deadline computed as
    [sent_at +. timeout] fires where a [schedule ~delay:timeout] made at
    [sent_at] would have. *)
val schedule_key : t -> key:float -> (unit -> unit) -> handle

val cancel : handle -> unit

val cancelled : handle -> bool

(** Execute due events until virtual time reaches [limit]; time is left
    at [limit] so consecutive calls compose. *)
val run_until : t -> float -> unit

(** [run_for t d] is [run_until t (now t +. d)]. *)
val run_for : t -> float -> unit

(** Drain the queue completely; raises once [max_events] have run (guard
    against non-terminating workloads). *)
val run : t -> max_events:int -> unit

(** Events currently queued. *)
val pending : t -> int
