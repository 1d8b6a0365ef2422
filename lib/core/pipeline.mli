(** The three-stage commit pipeline (§3.4, §3.5): group flush, wait for
    Raft consensus commit, engine group commit.  One implementation
    serves both the primary (flush = binlog append through Raft) and
    replicas (the applier feeds it), preserving the paper's symmetry. *)

type item = {
  flush : unit -> (int, string) result;
      (** perform the flush work; returns the Raft index to wait on *)
  finish : ok:bool -> unit;
      (** runs at engine commit ([ok = true]) or on abort/failure *)
}

type t

(** [is_primary_path] selects whether groups pay the MyRaft stamping
    cost (checksum + compression + OpId, §3.4).  [metrics] receives the
    pipeline.* counters, the queue-depth gauge and the per-stage latency
    histograms (flush_us, consensus_wait_us, engine_commit_us,
    txn_total_us, group_size). *)
val create :
  ?metrics:Obs.Metrics.t ->
  engine:Sim.Engine.t ->
  params:Params.t ->
  is_primary_path:bool ->
  unit ->
  t

val submit : t -> item -> unit

(** Install the group-commit scope: the flush stage runs each group's
    appends inside [f], so the embedder can coalesce their fsyncs into
    one (and tell Raft the log advanced afterwards).  Default: run
    directly. *)
val set_coalesce : t -> ((unit -> unit) -> unit) -> unit

(** Raft's commit marker advanced: release covered groups, in order. *)
val notify_commit_index : t -> int -> unit

(** Demotion step 1 (§3.3): fail everything in flight; returns the count.
    Until {!reset}, new submissions fail immediately. *)
val abort_all : t -> int

(** Raft truncated the log from [from_index]: fail every flushed item
    at or past it, and let each group that spanned the point wait only
    on the items it keeps (they commit once the commit index covers
    them).  Failed items count in pipeline.txns_aborted. *)
val truncate : t -> from_index:int -> unit

(** Re-arm after a role change. *)
val reset : t -> unit

val in_flight : t -> int

val groups_formed : t -> int

(** Average flush group size: > 1 under load means group commit works. *)
val mean_group_size : t -> float
