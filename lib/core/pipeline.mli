(** The three-stage commit pipeline (§3.4, §3.5): group flush, wait for
    Raft consensus commit, engine group commit.  One implementation
    serves both the primary (flush = binlog append through Raft) and
    replicas (the applier feeds it), preserving the paper's symmetry. *)

(** A pipeline whose transactions are values of type ['a]: one record
    per transaction, of the embedder's own type. *)
type 'a t

(** [flush item] performs one transaction's flush work and returns the
    Raft index it waits on, or a negative number when the flush failed
    (the item then fails at once).  [finish item ~ok] runs at engine
    commit ([ok = true]), or when the item fails or is aborted
    ([ok = false]).  Both are given once here, so a submission
    builds no closure: they are typically top-level functions applied to
    the embedder's state.

    [is_primary_path] selects whether groups pay the MyRaft stamping
    cost (checksum + compression + OpId, §3.4).  [metrics] receives the
    pipeline.* counters, the queue-depth gauge and the per-stage latency
    histograms (flush_us, consensus_wait_us, engine_commit_us,
    group_size). *)
val create :
  ?metrics:Obs.Metrics.t ->
  engine:Sim.Engine.t ->
  params:Params.t ->
  is_primary_path:bool ->
  flush:('a -> int) ->
  finish:('a -> ok:bool -> unit) ->
  unit ->
  'a t

(** Queue a transaction for the next flush group; while the pipeline is
    aborted it fails at once. *)
val submit : 'a t -> 'a -> unit

(** Install the group-commit scope: the flush stage runs each group's
    appends inside [f], so the embedder can coalesce their fsyncs into
    one (and tell Raft the log advanced afterwards).  Default: run
    directly. *)
val set_coalesce : 'a t -> ((unit -> unit) -> unit) -> unit

(** Raft's commit marker advanced: release covered groups, in order. *)
val notify_commit_index : 'a t -> int -> unit

(** Demotion step 1 (§3.3): fail everything in flight that has not
    reached stage 3; returns the count.  A commit cycle already running
    keeps its groups and commits them.  Until {!reset}, new submissions
    fail immediately. *)
val abort_all : 'a t -> int

(** Raft truncated the log from [from_index]: fail every flushed item
    at or past it, and let each group that spanned the point wait only
    on the items it keeps (they commit once the commit index covers
    them).  Failed items count in pipeline.txns_aborted. *)
val truncate : 'a t -> from_index:int -> unit

(** Re-arm after a role change.  A commit cycle still running stays the
    only one: groups released after the reset wait for it. *)
val reset : 'a t -> unit

val in_flight : 'a t -> int

val groups_formed : 'a t -> int

(** Average flush group size: > 1 under load means group commit works. *)
val mean_group_size : 'a t -> float
