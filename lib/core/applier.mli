(** The replica's applier (§3.5) as a WRITESET-driven parallel
    scheduler: a coordinator walks the relay log in order and dispatches
    entries to [Params.applier_workers] simulated worker lanes once
    their dependency interval allows ([last_committed] at or below the
    engine-committed low-water-mark).  Only the execute phase overlaps;
    submission into the FIFO commit pipeline stays in log order, so
    engine commit order is preserved (slave_preserve_commit_order).
    Unstamped entries (no-ops, config changes, rotates) are scheduling
    barriers — the serial applier's schedule.

    [applied_index] is a true low-water-mark over out-of-order engine
    commits: the highest log index durably in the engine with nothing
    earlier missing — what promotion step 2 waits on, and what positions
    the cursor after a role change (§3.3). *)

type t

(** One dispatched entry, handed to [process]: the applier's in-flight
    record for it, through which the entry reports back.  It also
    carries the transaction the server prepared for the entry, so the
    ticket is the server's pipeline item for it. *)
type ticket

(** The fencing token: any retry loop must consult it and abandon the
    entry when it turns false (truncation, applier restart). *)
val live : ticket -> bool

val entry : ticket -> Binlog.Entry.t

(** The handle [set_prepared] stored; {!Storage.Engine.unprepared}
    before that. *)
val prepared : ticket -> Storage.Engine.prepared

val set_prepared : ticket -> Storage.Engine.prepared -> unit

(** The entry's commit order is pinned (it entered the FIFO pipeline,
    or its outcome is terminal): must be reported exactly once — the
    applier keeps later entries out of the pipeline until then.  Calls
    on a fenced ticket, and repeats, are no-ops. *)
val submitted : ticket -> unit

(** The entry's engine commit ([ok = true]) or terminal failure.  May
    precede {!submitted} (idempotent replay, give-up).  Calls on a
    fenced ticket, and repeats, are no-ops. *)
val finished : ticket -> ok:bool -> unit

(** [process entry ticket] must execute the entry (prepare + pipeline
    submission) and report through {!submitted} and {!finished}. *)
val create :
  ?metrics:Obs.Metrics.t ->
  engine:Sim.Engine.t ->
  params:Params.t ->
  process:(Binlog.Entry.t -> ticket -> unit) ->
  unit ->
  t

(** Start (or restart) with the cursor at [from_index]; [backlog] is the
    relay-log suffix from that point. *)
val start : t -> from_index:int -> backlog:Binlog.Entry.t list -> unit

val stop : t -> unit

val is_running : t -> bool

(** Raft signal: [signal t entries ~pos ~len] says [entries.(pos)] to
    [entries.(pos + len - 1)] are new in the relay log (duplicates and
    gaps are filtered) — the range {!Raft.Node.callbacks}'
    [on_entries_appended] reports. *)
val signal : t -> Binlog.Entry.t array -> pos:int -> len:int -> unit

(** Log truncation: fence every lane at/above the point (in-flight
    executes, pipeline callbacks and server-side retry loops all become
    no-ops), turn unsubmitted entries below it back into undispatched
    ones (fencing their tickets), and rewind the cursors.  Entries below
    the point already submitted to the pipeline stay live: their
    commits still advance the mark. *)
val handle_truncation : t -> from_index:int -> unit

(** Consensus commit index as last reported, for the replica-lag gauge. *)
val note_commit_index : t -> int -> unit

val applied_index : t -> int

val applied_txns : t -> int

(** Distinct head-of-line dependency stalls observed (a free lane idled
    because the head's [last_committed] was above the mark). *)
val dep_stalls : t -> int

(** Worker lanes currently owning an entry (executing, parked ready, or
    submitting — a lane is released when its entry enters the
    pipeline).  A maintained counter: O(1). *)
val busy_workers : t -> int

(** Configured lane count (at least 1). *)
val workers : t -> int

(** {2 Introspection} *)

(** Next log index {!signal} accepts. *)
val next_expected : t -> int

(** The log indexes of every entry the applier's ring holds, whatever
    its state: always inside [[applied_index + 1, next_expected)]. *)
val ring_indexes : t -> int list
