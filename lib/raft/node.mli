(** The Raft replica state machine (the kuduraft stand-in) with the
    paper's extensions: FlexiRaft quorums (§4.1), proxying (§4.2) and
    mock elections (§4.3).

    The node is unaware of MySQL: it reads/writes its log through
    {!Binlog.Log_store} (the log abstraction of §3.1) and drives the
    database through {!callbacks} (the orchestration API of §3.3).
    Witnesses are nodes whose log has no state machine behind it.

    kuduraft behaviours kept on purpose: no automatic leader step-down;
    graceful TransferLeadership runs no pre-election (mock elections
    fill that gap); one membership change at a time.

    Membership is managed by logless dynamic reconfiguration (Schultz et
    al., arXiv 2102.11960): configs live in per-node durable state keyed
    by a [(version, term)] identity, ride AppendEntries/RequestVote
    instead of the log, and newest identity wins.  A change is accepted
    only when the current config is committed (installed by a data
    quorum of itself in the current term) and the current term's commits
    are covered by a data quorum of the new config. *)

type node_id = Types.node_id

(** Orchestration callbacks from Raft into the state machine (§3.3);
    mutable so the embedder can wire them after construction. *)
type callbacks = {
  mutable on_leader_start : noop_index:int -> unit;
  mutable on_step_down : unit -> unit;
  mutable on_commit_advance : commit_index:int -> unit;
  mutable on_entries_appended : Binlog.Entry.t array -> pos:int -> len:int -> unit;
      (** [on_entries_appended entries ~pos ~len]: the follower just
          appended [entries.(pos)] to [entries.(pos + len - 1)] ([len >
          0]) from one AppendEntries payload [entries].  The appended
          entries are always a contiguous suffix of the payload: the
          entries before [pos] were already held. *)
  mutable on_truncated : Binlog.Entry.t list -> unit;
  mutable on_quiesce : unit -> unit;
  mutable on_transfer_aborted : reason:string -> unit;
  mutable on_config_change : Types.config -> unit;
  mutable take_snapshot : unit -> Snapshot.t option;
      (** Produce an engine-checkpoint snapshot to rescue a peer wedged
          behind the purge boundary; [None] = no checkpoint source (the
          wedge stays visible as [raft.purge_wedges]). *)
  mutable install_snapshot : snapshot:Snapshot.t -> unit;
      (** Restore the engine from a received, verified checkpoint; the
          log has already been rebased at the boundary. *)
}

(** All callbacks are no-ops. *)
val default_callbacks : unit -> callbacks

type params = {
  heartbeat_interval : float;  (** 500 ms in production (§6.2) *)
  missed_heartbeats : int;  (** consecutive misses before an election *)
  quorum_mode : Quorum.mode;
  proxying : bool;
  max_entries_per_ae : int;
  max_inflight_aes : int;
      (** sliding replication window: entry-carrying AppendEntries
          outstanding per peer before the leader waits for an ack; 1 is
          stop-and-wait *)
  use_mock_elections : bool;
  auto_step_down_after : float;
      (** optional extension (0 = disabled, the kuduraft behaviour of
          §4.1): an isolated leader with an uncommittable tail abdicates
          after this long without data-quorum contact *)
  use_leader_lease : bool;
      (** lease fast path for linearizable reads: serve at the commit
          index without a confirmation round while the lease (computed
          from quorum-acked AppendEntries send times) is valid *)
  lease_drift_margin : float;
      (** safety margin subtracted from the lease duration to absorb
          clock rate drift between leader and voters; a margin at or
          above the election timeout disables the lease *)
  max_clock_drift : float;
      (** clock-fault spec the lease must survive: the largest absolute
          per-node oscillator rate error (e.g. 0.01 = ±1%) the deployment
          promises.  Scales the lease duration down by (1 - drift) so a
          fast local clock still locally expires the lease before any
          healthy voter's election timer can fire, and arms the drift
          detectors (ack cross-check, tick watchdog).  0 (default)
          disables both, preserving the pre-clock-model behaviour. *)
  snapshot_chunk_bytes : int;
      (** payload bytes per InstallSnapshot chunk (stop-and-wait) *)
  hb_suppress_limit : int;
      (** multi-Raft heartbeat coalescing: maximum consecutive empty
          AppendEntries an idle leader may skip to a peer while the
          shard mux vouches it recently carried a frame to that peer's
          node (the follower's failover clock is reset by
          {!note_transport_liveness} instead).  Suppression can only
          shorten the lease-extension stream, never extend a follower's
          patience, so it cannot create a second leader.  0 = disabled
          (single-group behaviour). *)
}

val default_params : params

(** Durable per-identity state (survives crashes): term, vote, the
    FlexiRaft last-known-leader / voting-history constraints, and the
    installed config with its identity (logless reconfiguration). *)
type durable

val fresh_durable : unit -> durable

type t

(** [metrics] receives the node's raft.* counters and latency histograms
    (a private registry is created when omitted); [tracebuf] receives
    OpId-correlated "consensus-commit" events as the commit index
    advances; [clock] is this node's local clock (a pristine one is
    created when omitted) — every election, heartbeat, lease and
    staleness interval the node measures runs on it, so injected clock
    faults distort exactly what they would on a real server. *)
val create :
  ?metrics:Obs.Metrics.t ->
  ?tracebuf:Obs.Tracebuf.t ->
  ?clock:Sim.Clock.t ->
  ?group:int ->
  engine:Sim.Engine.t ->
  id:node_id ->
  region:string ->
  send:(dst:node_id -> Message.t -> unit) ->
  log:Binlog.Log_store.t ->
  callbacks:callbacks ->
  params:params ->
  initial_config:Types.config ->
  durable:durable ->
  trace:Sim.Trace.t ->
  unit ->
  t

(** Cancel timers; the node ignores everything afterwards (crash). *)
val stop : t -> unit

(** Deliver one RPC (the embedder owns the network). *)
val handle_message : t -> src:node_id -> Message.t -> unit

(** {2 Client operations (leader only)} *)

(** Append a payload; Raft assigns the OpId and starts replication. *)
val client_append : t -> Binlog.Entry.payload -> (Binlog.Opid.t, string) result

(** Membership changes (§2.2) — one at a time, logless.  On success the
    new config is installed locally with the returned identity and
    gossiped; it is committed once {!has_pending_config_change} drops.
    Errors: not the leader, previous change still uncommitted, the two
    safety preconditions unmet, no voters, duplicate ids, or the leader
    removing/demoting itself (transfer first). *)
val add_member : t -> Types.member -> (Types.cfg_id, string) result

val remove_member : t -> node_id -> (Types.cfg_id, string) result

val promote_learner : t -> node_id -> (Types.cfg_id, string) result

val demote_voter : t -> node_id -> (Types.cfg_id, string) result

(** Observe installed-config events (adoption, local change, snapshot,
    election term rewrite with a membership delta).  Chains behind any
    callback the embedder wired; survives until the node object is
    rebuilt (i.e. re-subscribe after a restart). *)
val subscribe_config_change : t -> (Types.config -> unit) -> unit

(** Graceful transfer: optional mock election, quiesce, catch-up,
    TimeoutNow (§2.2, §4.3).  Completion/abort is reported through the
    callbacks. *)
val transfer_leadership : t -> target:node_id -> (unit, string) result

(** Start a real election immediately (bootstrap, TimeoutNow path,
    Quorum Fixer). *)
val trigger_election : t -> unit

(** {2 Linearizable read path (ReadIndex + leader lease)}

    [read_index t k] resolves, on the leader, the index a linearizable
    read must wait for the state machine to apply: the commit index,
    captured and then confirmed by one round of AppendEntries responses
    satisfying the FlexiRaft data quorum (concurrent requests batch into
    a single round, piggybacked on the pipelined replication stream).
    With a valid leader lease the round is skipped entirely.  [k]
    receives [Error _] on leadership loss, round timeout, or when called
    on a non-leader.

    Lease safety: the lease expires [missed_heartbeats x
    heartbeat_interval - lease_drift_margin] after the latest send time
    T such that responses from a data quorum prove every quorum member
    reset its election timer at or after T; because FlexiRaft election
    quorums intersect data quorums, no election bypassing that timer can
    complete while the lease holds.  The TimeoutNow / mock-election
    transfer path *does* bypass it, so {!transfer_leadership} revokes
    the lease and blocks re-extension; {!trigger_election} (bootstrap /
    Quorum Fixer) is the one remaining bypass and must not be aimed at a
    ring whose leader is serving lease reads. *)

val read_index : t -> ((int, string) result -> unit) -> unit

(** Like {!read_index} from any role: followers/learners forward the
    request to the last known leader and relay its answer (bounded by
    the election timeout). *)
val remote_read_index : t -> ((int, string) result -> unit) -> unit

(** The lease is valid: leader, lease not blocked by a transfer, a
    current-term entry has committed, and the expiry is in the future. *)
val lease_valid : t -> bool

(** The index a linearizable read may be served at off the leader lease:
    the commit index when {!lease_valid} holds on a running node, [-1]
    otherwise.  It is {!read_index}'s fast path as a plain int (no
    continuation, no [Ok] box), and it runs the same stale-lease oracle:
    a serve past the lease's global expiry counts in
    {!lease_stale_serves}.  At [-1] the caller resolves the index with
    {!remote_read_index}. *)
val lease_read_index : t -> int

(** Current lease expiry on this node's local clock ([neg_infinity] when
    none). *)
val lease_until : t -> float

(** Lease extension is blocked by an unresolved leadership transfer. *)
val lease_blocked : t -> bool

(** Lease fast-path serves issued after the lease had expired by global
    time: the stale-read safety oracle's count, read from the
    [raft.lease_stale_serves] counter of the node's registry.  Any
    increase between checker sweeps is a linearizability violation. *)
val lease_stale_serves : t -> int

(** This node's local clock (fault-injection point for chaos). *)
val clock : t -> Sim.Clock.t

(** Post-corruption fence: crash recovery truncated the log at a corrupt
    entry and [opid] was the pre-truncation tail.  Until replication
    restores this node's log to at least [opid], it neither campaigns nor
    grants votes (Pre or Real) to candidates whose logs end below it —
    entries up to [opid] may have been acked toward commit, so a quorum
    ignorant of them must not form.  No-op if the log already covers
    [opid]; cleared automatically once an append reaches it. *)
val set_vote_floor : t -> Binlog.Opid.t -> unit

(** [(as_of, index)]: the engine is fresh as of [as_of] once it has
    applied through [index] — the leader's own clock and commit index,
    or on a follower the anchor propagated on AppendEntries.  Serves
    bounded-staleness reads. *)
val staleness_anchor : t -> float * int

(** {2 Introspection} *)

val id : t -> node_id

val region : t -> string

(** Multi-Raft group tag this instance was created with (default 0).
    Purely identifying: the shard mux stamps it on every frame so many
    groups can share one physical node and one network packet. *)
val group : t -> int

(** {2 Shard-mux transport liveness (multi-Raft)}

    With many Raft groups multiplexed on the same nodes, per-group
    heartbeats would dominate the wire.  The shard mux instead offers
    two hooks: the leader asks [carrier ~dst] whether the shared
    transport recently carried any frame from this node to [dst]'s node
    (and if so may skip up to [hb_suppress_limit] consecutive empty
    AppendEntries to it); the follower side receives
    [note_transport_liveness ~from] whenever any frame from [from]'s
    node is delivered locally, resetting its failover clock iff [from]
    is the leader it currently follows. *)

val set_transport_carrier : t -> (dst:node_id -> bool) -> unit

val note_transport_liveness : t -> from:node_id -> unit

val role : t -> Types.role

val is_leader : t -> bool

val current_term : t -> int

val commit_index : t -> int

val leader_id : t -> node_id option

val last_opid : t -> Binlog.Opid.t

val last_index : t -> int

val config : t -> Types.config

(** Identity of the installed config: [(version, term)], bumped by
    every membership change, term-rewritten on election win. *)
val config_id : t -> Types.cfg_id

val quorum_mode : t -> Quorum.mode

val is_voter : t -> bool

(** Derived (never stored): leader and the installed config is not yet
    committed.  A demoted or restarted node therefore reports false —
    a leader crash mid-reconfig cannot wedge its successor. *)
val has_pending_config_change : t -> bool

val cache : t -> Log_cache.t

(** The registry this node records into. *)
val metrics : t -> Obs.Metrics.t

(** Leader-side replication progress of one peer. *)
val match_index_of : t -> peer:node_id -> int option

(** A snapshot install to this peer is in progress (entry replication to
    it is paused). *)
val snapshot_in_flight : t -> peer:node_id -> bool

(** Tell Raft the embedder coalesced a group of leader-side appends into
    one fsync: the local durable index advanced, so commit may too. *)
val notify_log_synced : t -> unit

(** Highest index safe to purge: shipped to every region and committed. *)
val safe_purge_index : t -> int

(** Quorum Fixer override (§5.3): when set, this node's elections are
    satisfied by its own vote. *)
val set_force_election_quorum : t -> bool -> unit

val describe : t -> string
