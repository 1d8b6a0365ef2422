(** Leader-side in-memory cache of recent log entries (§3.1, §3.4).

    Replication to caught-up followers never touches the log files; when
    a follower has fallen behind the eviction horizon the leader falls
    back to the log abstraction — "parsing historical binary log files" —
    surfaced by the [disk_reads] counter. *)

type t

(** [metrics] receives [raft.log_cache.hits] / [raft.log_cache.disk_reads]
    counters and a [raft.log_cache.bytes] gauge. *)
val create : ?metrics:Obs.Metrics.t -> ?max_bytes:int -> unit -> t

val put : t -> Binlog.Entry.t -> unit

(** Drop cached entries at or above [index] (a demoted leader reuses the
    cache). *)
val truncate_from : t -> index:int -> unit

(** Read a range preferring the cache, reading cold indexes from [log]
    with {!Binlog.Log_store.slot}; stops at the first entry neither
    holds (so a cold read allocates nothing).  [max_bytes] bounds the
    total payload: collection stops before exceeding the budget, but the
    first entry always ships so oversized transactions still progress
    ([max_int] for no budget).

    The hot-path shape: one right-sized array per call (no list cells,
    and no optional argument to box).  The array holds the entries
    themselves, which are immutable, so it stays valid however the cache
    evicts afterwards. *)
val read_slice :
  t -> log:Binlog.Log_store.t -> max_bytes:int -> from_index:int -> max_count:int ->
  Binlog.Entry.t array

val contains : t -> index:int -> bool

val disk_reads : t -> int

val cached_bytes : t -> int
