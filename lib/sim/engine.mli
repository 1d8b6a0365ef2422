(** Discrete-event simulation engine.

    Virtual time is a float measured in {e microseconds} (the unit the
    paper reports commit latencies in).  The engine owns a single event
    queue; events scheduled for the same instant fire in scheduling
    order, keeping runs deterministic.  Scheduling and firing an event
    allocate only its record (and the clock's box when time advances). *)

type t

type handle

(** A delay handed over in an all-float record, so passing it to
    {!schedule_call_cell} boxes nothing. *)
type delay_cell = { mutable delay : float }

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

(** [schedule_call t ~delay f a b] runs [f a b] after [delay]
    microseconds of virtual time, exactly as [schedule t ~delay (fun () ->
    f a b)] would, in the same (time, seq) order, but without building
    that closure: the event itself carries [f], [a] and [b] (five words,
    against three for a thunk plus the closure).  Pass a top-level [f] so
    nothing else is allocated.  Returns a handle usable with {!cancel}. *)
val schedule_call : t -> delay:float -> ('a -> 'b -> unit) -> 'a -> 'b -> handle

(** [schedule_call_cell t cell f a b] is [schedule_call t
    ~delay:cell.delay f a b], the key computed alike, but the delay is
    not boxed.  The cell may be reused once this returns. *)
val schedule_call_cell : t -> delay_cell -> ('a -> 'b -> unit) -> 'a -> 'b -> handle

(** Schedule at an absolute virtual time (clamped to now). *)
val schedule_at : t -> time:float -> (unit -> unit) -> handle

(** [schedule_key t ~key fn] runs [fn] at exactly virtual time [key]
    ([>= now t]).  Unlike {!schedule_at} the key is used as given rather
    than re-derived through a delay, so a deadline computed as
    [sent_at +. timeout] fires where a [schedule ~delay:timeout] made at
    [sent_at] would have. *)
val schedule_key : t -> key:float -> (unit -> unit) -> handle

(** [cancel h] drops the event from the live work: it will not fire
    and no longer counts in {!pending}.  The engine removes cancelled
    events from its queue once they outnumber the live ones, so the
    queue stays at most twice the live work plus a small fixed floor.
    Cancelling an event that already fired, or was already cancelled, is
    a no-op. *)
val cancel : handle -> unit

(** A handle that was never scheduled and is already cancelled: a
    disarmed timer field holds it instead of [None], so re-arming
    allocates no option.  {!cancel} on it is a no-op and {!cancelled}
    is true. *)
val none : handle

(** True only for an event cancelled before it fired. *)
val cancelled : handle -> bool

(** Execute due events until virtual time reaches [limit]; time is left
    at [limit] so consecutive calls compose. *)
val run_until : t -> float -> unit

(** [run_for t d] is [run_until t (now t +. d)]. *)
val run_for : t -> float -> unit

(** Live events: scheduled, not yet fired and not cancelled. *)
val pending : t -> int

(** Entries in the event queue: the live events plus cancelled ones not
    yet dropped.  Never above [2 * pending t + compaction_floor]. *)
val queue_length : t -> int

(** Dead entries the queue may hold whatever the live count (64). *)
val compaction_floor : int
