(* The Raft replica state machine (the kuduraft stand-in), with the
   paper's three extensions: FlexiRaft quorums (§4.1), proxying (§4.2),
   and mock elections (§4.3).

   The node is deliberately unaware of MySQL: it reads and writes its log
   through [Binlog.Log_store] (the log abstraction of §3.1, which hides
   the binlog/relay-log files, purge and fsync) and drives the database
   through [callbacks] (the orchestration API of §3.3).  Witnesses are
   nodes whose store has no state machine behind it.

   Faithful kuduraft behaviours kept on purpose:
   - no automatic leader step-down: a leader that loses its quorum keeps
     the role until it observes a higher term (§4.1);
   - graceful TransferLeadership runs no pre-election; mock elections
     fill that gap (§4.3);
   - one membership change at a time (§2.2). *)

type node_id = Types.node_id

module Log_store = Binlog.Log_store

(* Orchestration callbacks from Raft into the state machine (§3.3). *)
type callbacks = {
  mutable on_leader_start : noop_index:int -> unit;
  mutable on_step_down : unit -> unit;
  mutable on_commit_advance : commit_index:int -> unit;
  mutable on_entries_appended : Binlog.Entry.t array -> pos:int -> len:int -> unit;
  (* [entries.(pos) .. entries.(pos + len - 1)] were just appended: a
     suffix of one AppendEntries' payload (never empty). *)
  mutable on_truncated : Binlog.Entry.t list -> unit;
  mutable on_quiesce : unit -> unit;
  mutable on_transfer_aborted : reason:string -> unit;
  mutable on_config_change : Types.config -> unit;
  mutable take_snapshot : unit -> Snapshot.t option;
  (* Produce an engine-checkpoint snapshot to rescue a peer wedged behind
     the purge boundary.  None = no checkpoint source (witness, or the
     embedder declined); the wedge then stays visible as a counter. *)
  mutable install_snapshot : snapshot:Snapshot.t -> unit;
  (* Restore the engine from a received checkpoint.  Called after the
     log has been rebased at the boundary but before the commit index
     advances over it. *)
}

let default_callbacks () =
  {
    on_leader_start = (fun ~noop_index:_ -> ());
    on_step_down = (fun () -> ());
    on_commit_advance = (fun ~commit_index:_ -> ());
    on_entries_appended = (fun _ ~pos:_ ~len:_ -> ());
    on_truncated = (fun _ -> ());
    on_quiesce = (fun () -> ());
    on_transfer_aborted = (fun ~reason:_ -> ());
    on_config_change = (fun _ -> ());
    take_snapshot = (fun () -> None);
    install_snapshot = (fun ~snapshot:_ -> ());
  }

type params = {
  heartbeat_interval : float; (* 500 ms in production (§6.2) *)
  missed_heartbeats : int; (* 3 consecutive misses trigger an election *)
  quorum_mode : Quorum.mode;
  proxying : bool;
  max_entries_per_ae : int;
  max_inflight_aes : int;
  (* Sliding replication window: how many entry-carrying AppendEntries
     may be outstanding per peer before the leader must wait for an ack.
     1 degenerates to stop-and-wait (one batch per RTT). *)
  use_mock_elections : bool;
  (* kuduraft does NOT implement automatic step down (§4.1): an isolated
     leader keeps the role (and its uncommittable tail grows) until it
     sees a higher term.  This optional extension steps the leader down
     after [auto_step_down_after] without any data-quorum contact,
     failing clients fast instead of letting them block. 0 = disabled
     (the paper's production behaviour). *)
  auto_step_down_after : float;
  use_leader_lease : bool;
  (* Lease fast path for linearizable reads: the leader may serve a read
     at its commit index without a confirmation round while its lease is
     valid.  The lease is computed from quorum-acked AppendEntries send
     times (below) and never outlives the window in which a follower
     could start an election. *)
  lease_drift_margin : float;
  (* Safety margin subtracted from the lease duration to absorb clock
     rate drift between leader and voters (LeaseGuard).  A margin at or
     above the election timeout disables the lease entirely. *)
  max_clock_drift : float;
  (* Maximum relative oscillator drift the deployment is specified for
     (0.05 = clocks may run up to 5% fast or slow).  The lease duration
     is scaled down by this factor so a lease measured on a clock that is
     slow by up to this much still expires, in true time, before any
     correct voter's election timeout.  Drift beyond the spec is handled
     by detection (heartbeat-interval watchdog, quorum timestamp
     cross-check, backward-step monotonicity), which suppresses the lease
     rather than trusting it.  0 = assume perfect clocks (the pre-clock-
     model behaviour). *)
  snapshot_chunk_bytes : int;
  (* Payload bytes per InstallSnapshot chunk (stop-and-wait: one chunk
     in flight per transfer). *)
  hb_suppress_limit : int;
  (* Multi-Raft heartbeat coalescing: when a shared transport reports it
     recently carried traffic to a peer's node, an idle leader may skip
     up to this many consecutive empty AppendEntries to that peer — the
     follower's failover clock is reset by the transport's per-node
     liveness tap instead (note_transport_liveness).  Suppression only
     ever *shortens* the lease-extension stream, never lengthens a
     follower's patience beyond its configured election timeout, so it
     is safe by construction.  0 disables (single-group behaviour). *)
}

let default_params =
  {
    heartbeat_interval = 500.0 *. Sim.Engine.ms;
    missed_heartbeats = 3;
    quorum_mode = Quorum.Single_region_dynamic;
    proxying = true;
    max_entries_per_ae = 64;
    max_inflight_aes = 8;
    use_mock_elections = true;
    auto_step_down_after = 0.0;
    use_leader_lease = true;
    lease_drift_margin = 50.0 *. Sim.Engine.ms;
    max_clock_drift = 0.0;
    snapshot_chunk_bytes = 64 * 1024;
    hb_suppress_limit = 0;
  }

(* Protocol constants no deployment varies. *)

let election_jitter = 500.0 *. Sim.Engine.ms (* randomized extra timeout *)

(* Ceiling of the adaptive per-peer byte budget for one AppendEntries
   batch; the AIMD controller shrinks it under loss or ack-latency
   inflation and grows it back on clean acks.  At least one entry always
   ships, so a single oversized transaction still progresses. *)
let max_bytes_per_ae = 128 * 1024

(* Floor before the oldest unacknowledged windowed send is resent; the
   effective timeout is max(this, 4 x smoothed ack RTT).  This is what
   lets replication survive a lost AppendEntries *response* without
   waiting for a leadership change. *)
let retransmit_timeout = 250.0 *. Sim.Engine.ms

let proxy_wait = 200.0 *. Sim.Engine.ms (* wait before degrading a PROXY_OP to heartbeat *)

let proxy_retry_interval = 20.0 *. Sim.Engine.ms

let mock_election_timeout = 300.0 *. Sim.Engine.ms

(* §4.3 "lagging": a voter in the candidate's region rejects a mock vote
   when it trails the leader's snapshot by more than this many entries —
   replication-pipeline distance is fine, an unhealthy logtailer is not. *)
let mock_lag_allowance = 2_000

let transfer_timeout = 3.0 *. Sim.Engine.s

(* The window of recent log entries the leader counts as cached (§3.1,
   §3.4): the paper ships them from memory and "parses historical binary
   log files" for anything older.  The log already holds every entry in
   memory, so the window is only a floor index and a byte total, and
   what it yields is the hit / disk-read split. *)
let cache_bytes = 4 * 1024 * 1024

(* Pacing for the InstallSnapshot chunk stream, so a bulk install cannot
   starve the entry-AE pipeline to the healthy peers. *)
let snapshot_rate_bytes_per_s = 8.0 *. 1024.0 *. 1024.0

(* Resend the unacked chunk from the last acked offset after this long;
   what lets a transfer survive a lost chunk or ack. *)
let snapshot_retransmit_timeout = 500.0 *. Sim.Engine.ms

(* The layout a node holds until it first leads: no slots. *)
let no_layout =
  Quorum.layout Quorum.Majority { Types.members = [] } ~self:"" ~leader_region:""

(* Durable per-identity state (survives crashes): the Raft term and vote,
   plus the FlexiRaft constraints — the authoritative last known leader
   and the highest-term candidate granted a vote (voting history, §4.1).
   Forgetting either across a restart could let a quorum form that fails
   to intersect committed data, exactly like forgetting voted_for. *)
type durable = {
  mutable current_term : int;
  mutable voted_for : node_id option;
  mutable last_known_leader : (int * string) option; (* (term, region) *)
  mutable vote_constraint : (int * string) option; (* (term, region) *)
  mutable d_config : (Types.cfg_id * Types.config) option;
  (* Logless reconfiguration: the installed config IS durable state, not
     log state.  Forgetting it across a restart could resurrect a config
     this node already voted or acked past, letting two disjoint quorums
     form. *)
}

let fresh_durable () =
  {
    current_term = 0;
    voted_for = None;
    last_known_leader = None;
    vote_constraint = None;
    d_config = None;
  }

(* A peer's sliding window: the entry-carrying AppendEntries still
   outstanding, in a ring of [max_inflight_aes] slots.  The sends hold
   contiguous, ascending index ranges from [w_head] on (only a rewind
   moves the frontier back, and it empties the window), so acks retire
   a prefix.  Empty AEs (heartbeats/probes) are never windowed — there
   is nothing to resend. *)
type window = {
  w_seq : int array; (* the AE's [seq], echoed in its response *)
  w_first : int array; (* first entry index carried *)
  w_last : int array; (* last entry index carried *)
  w_sent : float array; (* leader's local clock at send *)
  w_sent_global : float array;
  (* engine (true) time at the same instant: the partner stamp from
     which the lease's expired-by-global-time oracle is derived *)
  mutable w_head : int; (* slot of the oldest send *)
  mutable w_len : int;
}

let window_create n =
  {
    w_seq = Array.make n 0;
    w_first = Array.make n 0;
    w_last = Array.make n 0;
    w_sent = Array.make n 0.0;
    w_sent_global = Array.make n 0.0;
    w_head = 0;
    w_len = 0;
  }

(* Slot of the [i]-th oldest send. *)
let w_slot w i =
  let k = w.w_head + i in
  if k >= Array.length w.w_seq then k - Array.length w.w_seq else k

(* Slot of the send [seq], or -1 when it is not in the window. *)
let w_find w seq =
  let found = ref (-1) and i = ref 0 in
  while !found < 0 && !i < w.w_len do
    let k = w_slot w !i in
    if w.w_seq.(k) = seq then found := k;
    incr i
  done;
  !found

(* One in-progress snapshot transfer to a peer: stop-and-wait chunks,
   resent from the acked offset on timeout, paced by the configured byte
   rate between acks.  The snapshot itself is immutable for the span of
   the transfer (the leader keeps replicating and purging around it). *)
type snap_xfer = {
  sx_id : int; (* leader-unique transfer id *)
  sx_snapshot : Snapshot.t;
  mutable sx_acked : int; (* contiguous bytes the follower confirmed *)
  mutable sx_timer : Sim.Engine.handle;
      (* pacing or retransmit; [Sim.Engine.none] when disarmed *)
}

(* The peer's clock figures an ack recomputes.  An all-float record
   stores them flat, so an ack writes them without boxing. *)
type peer_times = {
  mutable srtt : float; (* EWMA of ack RTT; 0 until first sample *)
  mutable acked_send_time : float;
  (* Latest local send time of an AppendEntries this peer has
     acknowledged at the current term.  The follower reset its election
     timer no earlier than this instant, which is what the leader-lease
     computation quantifies over. *)
  mutable acked_send_global : float;
  (* The engine-time partner stamp of [acked_send_time], maintained in
     lockstep so the lease's global-time oracle tracks the same event. *)
}

type peer_state = {
  peer_id : node_id;
  hop : node_id list;
  (* [[peer_id]], built once: the route list of a PROXY_OP this peer
     receives through a proxy, or answers back through as the proxy *)
  mutable peer_region : string;
  mutable slot : int; (* this peer's slot in the leader's [Quorum.layout] *)
  mutable next_index : int; (* send frontier: next index to ship *)
  mutable match_index : int; (* durable AND confirmed-matching prefix *)
  window : window;
  mutable send_seq : int; (* seq of the most recent AE to this peer *)
  mutable rewind_seq : int;
  (* Nack fence: failure responses with request_seq <= this answer sends
     from before the last window rewind; acting on each would rewind
     once per in-flight AE of the drained window. *)
  mutable delivered : int;
  (* Highest index any response confirmed the follower's log matches
     ours through (cumulative over out-of-order responses).  The leader
     trusts only its own bookkeeping here — never the follower's raw log
     tail, which may be an uncommitted stale-term suffix. *)
  times : peer_times; (* computed per ack: kept unboxed *)
  mutable ae_budget : int; (* AIMD byte budget for one batch *)
  mutable retransmit_timer : Sim.Engine.handle; (* [Sim.Engine.none] when disarmed *)
  mutable retransmit_fire : unit -> unit; (* the timer's thunk, built once *)
  mutable last_ack : float;
  mutable responded : bool; (* has acked this leader at least once *)
  mutable hb_sent : (int * float * float) list;
  (* (seq, local send time, global send time) of recent empty AEs,
     newest first and bounded: heartbeats are never windowed, so their
     send times live here for the [acked_send_time] lookup. *)
  mutable offset_sample : (float * float) option;
  (* (follower_time, our local receipt time) from this peer's last ack:
     the baseline for the clock-rate cross-check.  Between two acks the
     follower-reported interval and our locally measured interval must
     agree within the configured drift spec — a larger disagreement
     means one of the two oscillators is off and the lease cannot be
     trusted. *)
  mutable snap : snap_xfer option;
  (* In-flight snapshot install; entry replication and heartbeats to
     this peer pause until it completes or aborts. *)
  mutable wedged : bool;
  (* The peer's frontier sits below the purge boundary and cannot be
     served from the log.  Dedups the raft.purge_wedges counter to one
     bump per episode. *)
  mutable sent_commit : int;
  (* Highest commit_index shipped to this peer in any AppendEntries.
     Heartbeat suppression requires sent_commit >= commit_index: a
     transport liveness tap carries no commit marker, so a heartbeat
     whose only job is to propagate a commit advance must not be
     skipped. *)
  mutable hb_suppressed : int;
  (* Consecutive empty AEs skipped in favour of transport liveness;
     capped at hb_suppress_limit so a real (commit-bearing, ack-
     soliciting) heartbeat still flows periodically. *)
  mutable cfg_acked : Types.cfg_id;
  (* Newest config identity any response from this peer has reported
     installed.  Gates config gossip (the membership body rides the AE
     only while this trails the leader's cfg_id) and feeds the C1
     reconfig precondition (a quorum of the current config holds the
     current config in the current term). *)
}

type election = {
  phase : Message.vote_phase;
  election_term : int;
  mutable votes : node_id list;
  mutable auth_hint : (int * string) option; (* best authoritative leader seen *)
  mutable vote_hint : (int * string) option; (* best granted-vote constraint seen *)
  mock_requester : node_id option; (* respond here when phase = Mock *)
  mutable decided : bool;
}

type transfer = {
  transfer_target : node_id;
  mutable quiesced : bool;
  transfer_deadline : Sim.Engine.handle;
}

(* One ReadIndex confirmation round (batched: every read that arrived
   while the previous round was in flight shares the next one).  The
   round completes when responses to AppendEntries sent *after* the
   round started satisfy the data quorum — piggybacked on the pipelined
   replication stream rather than a dedicated RPC. *)
type read_round = {
  rr_index : int; (* commit index captured at round start *)
  rr_marks : (node_id * int) list;
  (* per-peer send_seq at round start: only responses to later sends
     prove leadership was held after the capture *)
  mutable rr_acks : node_id list;
  rr_waiters : ((int, string) result -> unit) list;
  mutable rr_deadline : Sim.Engine.handle; (* [Sim.Engine.none] when disarmed *)
}

(* Metric handles resolved once at node creation; hot-path recording is a
   single field update (see Obs.Metrics). *)
type meters = {
  m_elections_started : Obs.Metrics.counter;
  m_elections_won : Obs.Metrics.counter;
  m_votes_granted : Obs.Metrics.counter;
  m_votes_rejected : Obs.Metrics.counter;
  m_heartbeats_sent : Obs.Metrics.counter;
  m_ae_sent : Obs.Metrics.counter;
  m_ae_rejected : Obs.Metrics.counter;
  m_proxy_forwards : Obs.Metrics.counter;
  m_proxy_degraded : Obs.Metrics.counter;
  m_proxy_reconstitutions : Obs.Metrics.counter;
  m_commit_advances : Obs.Metrics.counter;
  m_retransmits : Obs.Metrics.counter;
  m_nacks : Obs.Metrics.counter;
  m_regressions : Obs.Metrics.counter; (* follower log ends below match_index *)
  m_cache_hits : Obs.Metrics.counter; (* entries shipped from inside the window *)
  m_cache_disk_reads : Obs.Metrics.counter; (* ... and from below its floor *)
  m_cache_bytes : Obs.Metrics.gauge; (* the window's byte total *)
  m_window : Obs.Metrics.gauge; (* in-flight entry AEs across all peers *)
  m_batch_bytes : Obs.Metrics.histogram; (* payload bytes per entry AE *)
  m_election_latency : Obs.Metrics.histogram; (* us, Real-phase start -> won *)
  m_readindex_rounds : Obs.Metrics.counter;
  m_readindex_forwarded : Obs.Metrics.counter;
  m_lease_extensions : Obs.Metrics.counter;
  m_lease_revocations : Obs.Metrics.counter;
  m_backward_steps : Obs.Metrics.counter; (* local clock ran backwards *)
  m_clock_suspects : Obs.Metrics.counter; (* lease suppressed on clock anomaly *)
  m_stale_serves : Obs.Metrics.counter; (* lease reads past global expiry (oracle) *)
  m_purge_wedges : Obs.Metrics.counter; (* peer frontier fell behind the purge boundary *)
  m_snapshots_taken : Obs.Metrics.counter; (* checkpoints produced for installs *)
  m_snapshot_chunks_sent : Obs.Metrics.counter;
  m_snapshot_bytes_sent : Obs.Metrics.counter;
  m_snapshot_retransmits : Obs.Metrics.counter; (* chunk resends after timeout *)
  m_snapshots_sent : Obs.Metrics.counter; (* transfers completed (leader side) *)
  m_snapshots_installed : Obs.Metrics.counter; (* installs applied (follower side) *)
  m_snapshot_aborts : Obs.Metrics.counter; (* failed verify / refused install *)
  m_hb_suppressed : Obs.Metrics.counter; (* empty AEs skipped, mux carried liveness *)
  m_transport_resets : Obs.Metrics.counter; (* failover clock resets from mux taps *)
  m_reconfig_changes : Obs.Metrics.counter; (* membership changes initiated (leader) *)
  m_reconfig_adoptions : Obs.Metrics.counter; (* configs installed (any source) *)
  m_reconfig_vote_denials : Obs.Metrics.counter; (* votes denied to staler-config candidates *)
  m_reconfig_gossip_bodies : Obs.Metrics.counter; (* AEs that carried a full config body *)
}

let make_meters m =
  {
    m_elections_started = Obs.Metrics.counter m "raft.elections_started";
    m_elections_won = Obs.Metrics.counter m "raft.elections_won";
    m_votes_granted = Obs.Metrics.counter m "raft.votes_granted";
    m_votes_rejected = Obs.Metrics.counter m "raft.votes_rejected";
    m_heartbeats_sent = Obs.Metrics.counter m "raft.heartbeats_sent";
    m_ae_sent = Obs.Metrics.counter m "raft.ae_sent";
    m_ae_rejected = Obs.Metrics.counter m "raft.ae_rejected";
    m_proxy_forwards = Obs.Metrics.counter m "raft.proxy_forwards";
    m_proxy_degraded = Obs.Metrics.counter m "raft.proxy_degraded";
    m_proxy_reconstitutions = Obs.Metrics.counter m "raft.proxy_reconstitutions";
    m_commit_advances = Obs.Metrics.counter m "raft.commit_advances";
    m_retransmits = Obs.Metrics.counter m "raft.retransmits";
    m_nacks = Obs.Metrics.counter m "raft.nacks";
    m_regressions = Obs.Metrics.counter m "raft.follower_log_regressions";
    m_cache_hits = Obs.Metrics.counter m "raft.log_cache.hits";
    m_cache_disk_reads = Obs.Metrics.counter m "raft.log_cache.disk_reads";
    m_cache_bytes = Obs.Metrics.gauge m "raft.log_cache.bytes";
    m_window = Obs.Metrics.gauge m "raft.window_inflight";
    m_batch_bytes = Obs.Metrics.histogram m "raft.ae_batch_bytes";
    m_election_latency = Obs.Metrics.histogram m "raft.election_latency_us";
    m_readindex_rounds = Obs.Metrics.counter m "raft.readindex_rounds";
    m_readindex_forwarded = Obs.Metrics.counter m "raft.readindex_forwarded";
    m_lease_extensions = Obs.Metrics.counter m "raft.lease_extensions";
    m_lease_revocations = Obs.Metrics.counter m "raft.lease_revocations";
    m_backward_steps = Obs.Metrics.counter m "clock.backward_steps";
    m_clock_suspects = Obs.Metrics.counter m "clock.suspect_events";
    m_stale_serves = Obs.Metrics.counter m "raft.lease_stale_serves";
    m_purge_wedges = Obs.Metrics.counter m "raft.purge_wedges";
    m_snapshots_taken = Obs.Metrics.counter m "snapshot.taken";
    m_snapshot_chunks_sent = Obs.Metrics.counter m "snapshot.chunks_sent";
    m_snapshot_bytes_sent = Obs.Metrics.counter m "snapshot.bytes_sent";
    m_snapshot_retransmits = Obs.Metrics.counter m "snapshot.chunk_retransmits";
    m_snapshots_sent = Obs.Metrics.counter m "snapshot.sends_completed";
    m_snapshots_installed = Obs.Metrics.counter m "snapshot.installs";
    m_snapshot_aborts = Obs.Metrics.counter m "snapshot.aborts";
    m_hb_suppressed = Obs.Metrics.counter m "raft.heartbeats_suppressed";
    m_transport_resets = Obs.Metrics.counter m "raft.transport_liveness_resets";
    m_reconfig_changes = Obs.Metrics.counter m "reconfig.changes";
    m_reconfig_adoptions = Obs.Metrics.counter m "reconfig.adoptions";
    m_reconfig_vote_denials = Obs.Metrics.counter m "reconfig.vote_denials";
    m_reconfig_gossip_bodies = Obs.Metrics.counter m "reconfig.gossip_bodies";
  }

(* The leader lease's expiry.  An all-float record stores it flat, so
   the extension an ack computes is written without boxing. *)
type lease = {
  mutable until : float; (* local clock; neg_infinity = none *)
  mutable until_global : float;
  (* The same lease interval evaluated on the engine's true clock: the
     instant after which a correct-clock voter could have completed an
     election.  Serving past it while the local reading still looks
     valid is the stale-lease bug; [raft.lease_stale_serves] counts it and
     the chaos checker fails the run on any nonzero count. *)
}

(* Follower side of an InstallSnapshot transfer: chunks accumulate here
   until the payload is complete and verified.  Keyed by (leader, id) so
   a duplicate or crossed transfer restarts cleanly. *)
type pending_install = {
  pi_leader : node_id;
  pi_id : int;
  pi_meta : Snapshot.meta;
  pi_buf : Buffer.t;
}

type t = {
  engine : Sim.Engine.t;
  clock : Sim.Clock.t;
  (* this node's view of time: every timeout, timestamp and lease
     interval below is measured on it, never on the engine directly
     (except the global-time lease oracle, which exists to catch exactly
     that class of bug) *)
  id : node_id;
  region : string;
  group : int;
  (* Multi-Raft: which consensus group this instance belongs to.  Pure
     tagging — the group never changes the protocol, only how the shard
     mux frames and demultiplexes this node's traffic. *)
  send : dst:node_id -> Message.t -> unit;
  log : Log_store.t;
  durable : durable;
  params : params;
  trace : Sim.Trace.t;
  rng : Sim.Rng.t;
  callbacks : callbacks;
  mutable win_first : int; (* lowest index in the cache window; 0 when empty *)
  mutable win_bytes : int; (* bytes of the entries from there to the tail *)
  mutable role : Types.role;
  mutable leader_id : node_id option;
  mutable commit_index : int;
  mutable cfg : Types.config;
  mutable cfg_id : Types.cfg_id;
  (* The installed config and its (version, term) identity — logless
     reconfiguration: configs never ride the log, they live here, are
     gossiped on AppendEntries/RequestVote, and a strictly newer identity
     always wins.  Mirrored into [durable.d_config] on every install. *)
  peers : (node_id, peer_state) Hashtbl.t;
  mutable election : election option;
  mutable election_timer : Sim.Engine.handle; (* [Sim.Engine.none] when disarmed *)
  mutable election_fire : unit -> unit; (* its thunk, built once *)
  mutable heartbeat_timer : Sim.Engine.handle; (* [Sim.Engine.none] when disarmed *)
  mutable transfer : transfer option;
  mutable force_election_quorum : bool; (* Quorum Fixer override *)
  mutable stopped : bool;
  mutable last_leader_contact : float;
  metrics : Obs.Metrics.t;
  meters : meters;
  tracebuf : Obs.Tracebuf.t option;
  mutable layout : Quorum.layout;
  (* The data quorum's slots under this leader, rebuilt with the peer
     table; [advance_commit] and [extend_lease] fill its stamps. *)
  mutable peer_array : peer_state array; (* [peers]' records, for scans *)
  mutable inflight : int; (* entry AEs in flight across all peers' windows *)
  mutable election_started_at : float; (* neg_infinity when no election *)
  (* --- consistency-tiered read path --- *)
  lease : lease; (* expiry, extended per quorum ack: stored unboxed *)
  mutable lease_blocked : bool;
  (* Set for the span of a leadership transfer: TimeoutNow lets the
     target win an election without waiting out a timeout, so lease
     intervals computed from pre-transfer acks are void and no new ones
     may be taken until the transfer resolves (LeaseGuard). *)
  mutable read_round : read_round option; (* in-flight confirmation round *)
  mutable read_queue : ((int, string) result -> unit) list;
  (* reads awaiting the next round, newest first *)
  mutable next_read_rid : int;
  pending_remote_reads :
    (int, ((int, string) result -> unit) * Sim.Engine.handle) Hashtbl.t;
  (* follower side: rid -> (continuation, forward timeout) *)
  mutable fresh_time : float;
  mutable fresh_index : int;
  (* Staleness anchor (leader_time, commit_index) from the freshest
     AppendEntries whose [leader_last_index] our log covers: every write
     acknowledged before leader_time has index <= that commit_index, so
     an engine applied through it is fresh as of leader_time. *)
  mutable batch : Binlog.Entry.t array;
  mutable batch_from : int;
  mutable append_batch : unit -> unit;
  (* The follower's append of one AppendEntries payload, run under
     [log.run_batched]: the thunk (built once) appends [batch] and sets
     [batch_from] to the first position it appended ([Array.length
     batch] when none). *)
  mutable reply_hop : node_id list;
  (* [[dst]] of the last proxied response: the route tail a reply to
     the same leader reuses *)
  (* --- clock-anomaly defences (LeaseGuard) --- *)
  mutable last_local_now : float;
  (* High-water mark of local readings: a reading below it means the
     clock stepped backwards, which voids every interval measured across
     the step. *)
  mutable clock_suspect_until : float;
  (* Local instant until which the lease fast path is suppressed because
     a clock anomaly was detected (backward step, heartbeat-interval
     mismatch, or rate disagreement with the quorum).  The suppression
     window exceeds the lease duration, so any lease granted before the
     anomaly has locally expired by the time the path re-opens. *)
  mutable last_hb_tick_local : float;
  (* Local reading at the previous heartbeat tick; the tick fires on a
     countdown armed before any mid-flight rate fault, so the measured
     local interval diverging from [heartbeat_interval] is a watchdog
     for rate steps even when no ack can reach us.  neg_infinity between
     leaderships. *)
  mutable next_snapshot_id : int; (* leader-unique InstallSnapshot transfer ids *)
  mutable pending_install : pending_install option; (* follower-side transfer *)
  mutable vote_floor : Binlog.Opid.t option;
  (* Set when corruption recovery truncated entries this node may have
     acknowledged: until its log regains an entry at least as up-to-date
     as the floor, it must not vote for (or campaign as) a candidate
     whose log is behind the floor — its missing ack could otherwise
     complete a quorum that fails to cover a committed entry. *)
  mutable transport_carrier : (dst:node_id -> bool) option;
  (* Shard-mux hook: answers "did the shared transport recently carry a
     frame from this node to [dst]'s node?".  When it did, an idle
     leader may suppress its empty AppendEntries to [dst] (see
     hb_suppress_limit); the follower's failover clock is reset by the
     transport's liveness tap instead. *)
  mutable last_transport_reset : float;
  (* Local time of the last transport-driven election-timer reset;
     rate-limits note_transport_liveness so a busy mux link does not
     re-arm the timer on every delivered packet. *)
  mutable last_leader_rpc : float;
  (* Local time of the last group-level message (AppendEntries or
     InstallSnapshot) from the leader.  Transport liveness stands in for
     suppressed heartbeats only while this is recent: a shared process
     that is alive but no longer leads this group keeps sending frames
     for its other groups. *)
}

let id t = t.id

let region t = t.region

let group t = t.group

let role t = t.role

let is_leader t = t.role = Types.Leader

let current_term t = t.durable.current_term

let commit_index t = t.commit_index

let leader_id t = t.leader_id

let last_opid t = Log_store.last_opid t.log

let last_index t = Binlog.Opid.index (last_opid t)

let config t = t.cfg

let config_id t = t.cfg_id

let quorum_mode t = t.params.quorum_mode

let metrics t = t.metrics

(* Extend the cache window to the entry just appended at [index], then
   move its floor up, oldest first, until its bytes fit [cache_bytes]
   (the newest entry always stays).  A purged slot's size is gone with
   it: once the floor meets one, it jumps to the purge horizon and the
   bytes are recounted over the entries the log still holds. *)
let advance_window t entry =
  let index = Binlog.Entry.index entry in
  if t.win_first = 0 then t.win_first <- index;
  t.win_bytes <- t.win_bytes + Binlog.Entry.size entry;
  while t.win_bytes > cache_bytes && t.win_first < index do
    let e = Log_store.slot t.log t.win_first in
    if e != Log_store.absent then begin
      t.win_bytes <- t.win_bytes - Binlog.Entry.size e;
      t.win_first <- t.win_first + 1
    end
    else begin
      t.win_first <- Log_store.purged_below t.log;
      t.win_bytes <- 0;
      for i = t.win_first to index do
        t.win_bytes <- t.win_bytes + Binlog.Entry.size (Log_store.slot t.log i)
      done
    end
  done;
  Obs.Metrics.set_gauge_int t.meters.m_cache_bytes t.win_bytes

(* Cut the window back after the log dropped [removed], its entries from
   [from_index] on ([from_index = 1] drops the whole window). *)
let cut_window t ~from_index removed =
  if t.win_first <> 0 then begin
    if from_index <= t.win_first then begin
      t.win_first <- 0;
      t.win_bytes <- 0
    end
    else List.iter (fun e -> t.win_bytes <- t.win_bytes - Binlog.Entry.size e) removed;
    Obs.Metrics.set_gauge_int t.meters.m_cache_bytes t.win_bytes
  end

(* Append to the local log: the leader's own entries and a follower's
   replicated ones take the same path through log and cache window.
   Once the log regains an entry at least as up-to-date as what
   corruption recovery truncated, the vote floor lifts and normal voting
   resumes. *)
let append_local t entry =
  Log_store.append t.log entry;
  advance_window t entry;
  match t.vote_floor with
  | Some fl when Binlog.Opid.at_least_as_up_to_date_as (Binlog.Entry.opid entry) fl ->
    t.vote_floor <- None
  | _ -> ()

(* Commit-index advanced over (from_index-1, to_index]: count it and
   emit one "consensus-commit" trace event per index so a transaction's
   consensus step is visible on every node that learned of the commit. *)
let note_commit t ~from_index ~to_index =
  Obs.Metrics.incr t.meters.m_commit_advances;
  match t.tracebuf with
  | Some tb ->
    let now = Sim.Clock.now t.clock in
    for idx = from_index to to_index do
      let term = max 0 (Log_store.term_of t.log idx) in
      Obs.Tracebuf.record tb ~time:now ~node:t.id ~stage:"consensus-commit" ~term
        ~index:idx ()
    done
  | None -> ()

(* Raise the commit index to [n] (no-op unless it moves forward) and tell
   the state machine; leader quorum, follower AE and snapshot install
   all commit through here. *)
let commit_through t n =
  if n > t.commit_index then begin
    let prev = t.commit_index in
    t.commit_index <- n;
    note_commit t ~from_index:(prev + 1) ~to_index:n;
    t.callbacks.on_commit_advance ~commit_index:n
  end

let rec voter_among id = function
  | [] -> false
  | m :: rest -> if String.equal m.Types.id id then m.Types.voter else voter_among id rest

(* [Types.find_member] without its option and closure: every
   AppendEntries re-arms the election timer behind this check. *)
let is_voter t = voter_among t.id t.cfg.Types.members

let set_force_election_quorum t v = t.force_election_quorum <- v

(* The highest term at which this node knows data may have committed —
   from an authoritative leader or from a vote it granted. *)
let constraint_term t =
  let term = function Some (x, _) -> x | None -> 0 in
  max (term t.durable.last_known_leader) (term t.durable.vote_constraint)

let tracef t tag fmt = Sim.Trace.record t.trace ~tag fmt

(* Do this node (when [self]) and the peers satisfying [acked] form a
   data quorum of [cfg]? *)
let data_quorum_of t cfg ~self acked =
  let acks = Hashtbl.fold (fun pid p acc -> if acked p then pid :: acc else acc) t.peers [] in
  Quorum.data_quorum_satisfied t.params.quorum_mode cfg ~leader_region:t.region
    ~acks:(if self then t.id :: acks else acks)

(* ----- timers ----- *)

(* How long a follower goes without leader contact before it may
   campaign (jitter aside): the unit of every failure-detection timeout,
   and the window a leader lease must fit inside. *)
let detection_window t =
  float_of_int t.params.missed_heartbeats *. t.params.heartbeat_interval

let[@inline] lease_duration t =
  (* Measured on the leader's own clock.  Scaling the election window by
     (1 - max_clock_drift) is what makes the margin actually cover the
     configured drift: a leader slow by up to the spec still sees this
     many local microseconds elapse within
       (window * (1 - drift) - margin) / (1 - drift) < window - margin
     true microseconds — strictly inside any correct voter's election
     timeout. *)
  (detection_window t *. (1.0 -. t.params.max_clock_drift))
  -. t.params.lease_drift_margin

(* The same interval on the engine's true clock: the bound a correct
   voter's election timeout actually guarantees.  Feeds the oracle only —
   no node decision may read it. *)
let[@inline] lease_duration_global t = detection_window t -. t.params.lease_drift_margin

let election_timeout t =
  detection_window t +. Sim.Rng.uniform t.rng ~lo:0.0 ~hi:election_jitter

let rec reset_election_timer t =
  disarm_election_timer t;
  if (not t.stopped) && t.role <> Types.Leader && is_voter t then
    t.election_timer <-
      Sim.Clock.schedule t.clock ~delay:(election_timeout t) t.election_fire

and disarm_election_timer t =
  Sim.Engine.cancel t.election_timer;
  t.election_timer <- Sim.Engine.none

and on_election_timeout t =
  if (not t.stopped) && t.role <> Types.Leader && is_voter t then begin
    begin_election t ~phase:Message.Pre;
    reset_election_timer t
  end

(* ----- clock-anomaly defences ----- *)

(* Suppress the lease fast path for a full election window of local time.
   The window exceeds any lease duration, so whatever lease interval was
   granted before the anomaly has locally expired by the time the path
   re-opens; while suppressed, linearizable reads pay a ReadIndex round,
   which is anomaly-proof (it re-confirms leadership through the quorum
   rather than through elapsed time). *)
and suspect_clock t ~local_now:lnow ~reason =
  let window = detection_window t +. election_jitter in
  if lnow +. window > t.clock_suspect_until then begin
    if t.clock_suspect_until <= lnow then begin
      Obs.Metrics.incr t.meters.m_clock_suspects;
      tracef t "clock" "%s: clock suspect (%s); lease suppressed" t.id reason
    end;
    t.clock_suspect_until <- lnow +. window
  end;
  revoke_lease t ~reason

(* Every read of the local clock doubles as a monotonicity watchdog: a
   reading below the high-water mark means the clock stepped backwards,
   voiding every interval measured across the step. *)
and local_now t =
  let lnow = Sim.Clock.now t.clock in
  if lnow +. 1e-6 < t.last_local_now then begin
    Obs.Metrics.incr t.meters.m_backward_steps;
    tracef t "clock" "%s: backward clock step (%.0f -> %.0f us)" t.id t.last_local_now
      lnow;
    suspect_clock t ~local_now:lnow ~reason:"backward clock step"
  end;
  if lnow > t.last_local_now then t.last_local_now <- lnow;
  lnow

(* Does the post-corruption vote floor rule out a log ending at [opid]?
   The floor is the pre-truncation tail recorded by crash recovery: logs
   below it may be missing committed entries and must neither campaign
   nor collect votes until replication restores them past it. *)
and vote_floor_blocks t opid =
  match t.vote_floor with
  | None -> false
  | Some fl -> not (Binlog.Opid.at_least_as_up_to_date_as opid fl)

(* ----- proxy routing ----- *)

(* Pick the designated proxy for a remote region: the most caught-up
   responsive member there.  The proxy itself receives full AppendEntries
   payloads directly; its region-mates receive PROXY_OPs through it.
   Returns its position in [peer_array], or -1 when no healthy member
   exists (route around, §4.2.3). *)
and designated_proxy t ~region =
  let now = local_now t in
  let healthy_cutoff = 3.0 *. t.params.heartbeat_interval in
  (* The greatest (match_index, id) in one pass. *)
  let best = ref (-1) in
  for i = 0 to Array.length t.peer_array - 1 do
    let p = t.peer_array.(i) in
    (* A proxy must have acknowledged this leader at least once — a node
       that has never responded may be dead and would blackhole its
       whole region (§4.2.3 route-around). *)
    if
      String.equal p.peer_region region
      && p.responded
      && now -. p.last_ack <= healthy_cutoff
      && (!best < 0
         ||
         let b = t.peer_array.(!best) in
         p.match_index > b.match_index
         || (p.match_index = b.match_index && String.compare p.peer_id b.peer_id > 0))
    then best := i
  done;
  !best

(* ----- replication (leader side): windowed pipeline ----- *)

and update_window_gauge t = Obs.Metrics.set_gauge_int t.meters.m_window t.inflight

(* AIMD byte budget: halve on loss/latency signals, grow additively on
   clean acks.  The floor keeps rewind probes small but useful. *)
and shrink_budget peer = peer.ae_budget <- max 4096 (peer.ae_budget / 2)

and grow_budget peer =
  peer.ae_budget <-
    min max_bytes_per_ae (peer.ae_budget + max 1024 (peer.ae_budget / 4))

and cancel_retransmit peer =
  Sim.Engine.cancel peer.retransmit_timer;
  peer.retransmit_timer <- Sim.Engine.none

and cancel_snap_timer xfer =
  Sim.Engine.cancel xfer.sx_timer;
  xfer.sx_timer <- Sim.Engine.none

and cancel_snap peer =
  match peer.snap with
  | Some xfer ->
    cancel_snap_timer xfer;
    peer.snap <- None
  | None -> ()

(* Empty the peer's window, keeping the running total exact. *)
and forget_window t peer =
  t.inflight <- t.inflight - peer.window.w_len;
  peer.window.w_len <- 0

(* Empty the peer's window and fence the drained seqs: failure responses
   to sends from before this point must not rewind a second time. *)
and drain_window t peer =
  forget_window t peer;
  peer.rewind_seq <- peer.send_seq;
  cancel_retransmit peer;
  update_window_gauge t

(* Resend from [from] (never below the confirmed prefix) with a smaller
   batch: the window's sends, or their responses, are presumed lost. *)
and rewind_window t peer ~from =
  drain_window t peer;
  peer.next_index <- max (peer.match_index + 1) from;
  shrink_budget peer

and cancel_peer_timers t =
  Hashtbl.iter
    (fun _ p ->
      cancel_retransmit p;
      cancel_snap p)
    t.peers

and reset_peers t =
  cancel_peer_timers t;
  Hashtbl.iter (fun _ p -> forget_window t p) t.peers;
  Hashtbl.reset t.peers;
  t.peer_array <- [||]

(* Effective retransmission timeout: the fixed floor or a smoothed-
   RTT multiple, so cross-region peers are not spuriously resent. *)
and retransmit_after peer =
  let rto = 4.0 *. peer.times.srtt in
  if retransmit_timeout >= rto then retransmit_timeout else rto

and arm_retransmit t peer ~delay =
  (* Floor of 1 us: a sub-ulp delay at a large virtual time rounds to
     "now" and the timer would fire in place forever. *)
  let delay = if delay >= 1.0 then delay else 1.0 in
  if not t.stopped then
    peer.retransmit_timer <- Sim.Clock.schedule t.clock ~delay peer.retransmit_fire

and retransmit_fired t peer =
  peer.retransmit_timer <- Sim.Engine.none;
  on_retransmit_timeout t peer

(* Timers hold a peer record that may be stale: leadership and
   membership changes reset the table, so they act only while this
   exact record is still installed on a running leader. *)
and peer_live t peer =
  (not t.stopped)
  && t.role = Types.Leader
  && (match Hashtbl.find_opt t.peers peer.peer_id with
     | Some p -> p == peer
     | None -> false)

and on_retransmit_timeout t peer =
  let w = peer.window in
  if peer_live t peer && w.w_len > 0 then begin
    let age = local_now t -. w.w_sent.(w.w_head) in
    let timeout = retransmit_after peer in
    if age +. 1e-3 >= timeout then begin
      (* The oldest windowed send (or its response) is presumed lost:
         rewind to its start and resend.  Without this, one lost
         AppendEntries *response* stalled the peer until a leadership
         change. *)
      let first = w.w_first.(w.w_head) in
      Obs.Metrics.incr t.meters.m_retransmits;
      tracef t "raft" "%s: retransmit to %s from index %d (window %d)" t.id peer.peer_id
        first w.w_len;
      rewind_window t peer ~from:first;
      replicate_to t peer ~allow_empty:true
    end
    else arm_retransmit t peer ~delay:(timeout -. age)
  end

(* Attach the membership body only while the peer's acknowledged config
   identity trails ours; after one ack the stream drops back to the bare
   identity, keeping steady-state AE bandwidth flat. *)
and gossip_body t peer =
  if Types.cfg_id_newer t.cfg_id peer.cfg_acked then begin
    Obs.Metrics.incr t.meters.m_reconfig_gossip_bodies;
    Some t.cfg
  end
  else None

(* The one AppendEntries this leader sends to [peer] under its latest
   seq; entry batches, heartbeats and wedge probes differ only in the
   prev anchor, the payload and the proxy route back. *)
and ae_request t peer ~prev_opid ~leader_time ~reply_route payload =
  {
    Message.term = t.durable.current_term;
    leader_id = t.id;
    leader_region = t.region;
    prev_opid;
    payload;
    commit_index = t.commit_index;
    seq = peer.send_seq;
    reply_route;
    leader_time;
    leader_last_index = last_index t;
    cfg_id = t.cfg_id;
    cfg = gossip_body t peer;
  }

(* The prev anchor of a send from [prev_index + 1]: the log's own OpId
   of that entry when it holds it (so the send builds none), else one
   made from [term] (the purge boundary, or index 0). *)
and prev_anchor t prev_index ~term =
  let e = Log_store.slot t.log prev_index in
  if e != Log_store.absent then Binlog.Entry.opid e
  else Binlog.Opid.make ~term ~index:prev_index

(* Ship one byte-budgeted batch from the send frontier; returns false
   when there is nothing sendable (hole at the frontier or purged prev). *)
and send_entry_batch t peer =
  let from_index = peer.next_index in
  let entries =
    Log_store.read_slice t.log ~max_bytes:peer.ae_budget ~from_index
      ~max_count:t.params.max_entries_per_ae
  in
  let n = Array.length entries in
  if n = 0 then false
  else begin
    (* Entries from the window floor on count as cache hits, the rest as
       reads of historical log files. *)
    let hits =
      if t.win_first = 0 then 0 else max 0 (from_index + n - max from_index t.win_first)
    in
    Obs.Metrics.add t.meters.m_cache_hits hits;
    Obs.Metrics.add t.meters.m_cache_disk_reads (n - hits);
    let prev_index = from_index - 1 in
    let prev_term = Log_store.term_of t.log prev_index in
    if prev_term < 0 then begin
      tracef t "raft" "%s: cannot replicate to %s: index %d purged" t.id peer.peer_id
        prev_index;
      note_purge_wedge t peer;
      false
    end
    else begin
      let prev_opid = prev_anchor t prev_index ~term:prev_term in
      peer.send_seq <- peer.send_seq + 1;
      let last = entries.(Array.length entries - 1) in
      let last_idx = Binlog.Entry.index last in
      let bytes = Array.fold_left (fun acc e -> acc + Binlog.Entry.size e) 0 entries in
      let sent_local = local_now t in
      let w = peer.window in
      let k = w_slot w w.w_len in
      w.w_seq.(k) <- peer.send_seq;
      w.w_first.(k) <- from_index;
      w.w_last.(k) <- last_idx;
      w.w_sent.(k) <- sent_local;
      w.w_sent_global.(k) <- Sim.Engine.now t.engine;
      w.w_len <- w.w_len + 1;
      t.inflight <- t.inflight + 1;
      peer.next_index <- last_idx + 1;
      peer.sent_commit <- max peer.sent_commit t.commit_index;
      peer.hb_suppressed <- 0;
      if peer.retransmit_timer == Sim.Engine.none then
        arm_retransmit t peer ~delay:(retransmit_after peer);
      update_window_gauge t;
      Obs.Metrics.incr t.meters.m_ae_sent;
      Obs.Metrics.record t.meters.m_batch_bytes (float_of_int bytes);
      let proxy =
        if t.params.proxying && peer.peer_region <> t.region then
          designated_proxy t ~region:peer.peer_region
        else -1
      in
      (* the designated proxy itself gets the full payload *)
      if proxy >= 0 && t.peer_array.(proxy) != peer then begin
        (* PROXY_OP: ship metadata only; the proxy reconstitutes the
           payload from its own log (§4.2.1). *)
        let via = t.peer_array.(proxy) in
        Obs.Metrics.incr t.meters.m_proxy_forwards;
        let refs =
          Message.Refs
            {
              first_index = from_index;
              last_index = last_idx;
              last_term = Binlog.Entry.term last;
            }
        in
        t.send ~dst:via.peer_id
          (Message.Proxied
             {
               next_hops = peer.hop;
               inner =
                 Message.Append_entries
                   (ae_request t peer ~prev_opid ~leader_time:sent_local ~reply_route:via.hop
                      refs);
             })
      end
      else
        t.send ~dst:peer.peer_id
          (Message.Append_entries
             (ae_request t peer ~prev_opid ~leader_time:sent_local ~reply_route:[]
                (Message.Entries entries)));
      true
    end
  end

(* Empty AEs are never windowed (nothing to resend).  With the window
   open they anchor at [match_index] — known to match, so they cannot
   race the in-flight entries into a spurious nack; with it empty they
   anchor at the frontier and double as a probe. *)
and send_heartbeat t peer =
  let prev_index =
    if peer.window.w_len = 0 then peer.next_index - 1 else peer.match_index
  in
  let prev_term = Log_store.term_of t.log prev_index in
  if prev_term < 0 then begin
    tracef t "raft" "%s: cannot heartbeat %s: index %d purged" t.id peer.peer_id
      prev_index;
    note_purge_wedge t peer
  end
  else begin
    peer.sent_commit <- max peer.sent_commit t.commit_index;
    peer.hb_suppressed <- 0;
    send_empty t peer (prev_anchor t prev_index ~term:prev_term)
  end

(* The empty-AE send shared by heartbeats and wedge probes.  Its send
   time is remembered (bounded) so the ack can feed the lease. *)
and send_empty t peer prev_opid =
  peer.send_seq <- peer.send_seq + 1;
  let now = local_now t in
  let keep = (2 * t.params.max_inflight_aes) + 8 in
  peer.hb_sent <-
    (peer.send_seq, now, Sim.Engine.now t.engine)
    :: List.filteri (fun i _ -> i < keep) peer.hb_sent;
  Obs.Metrics.incr t.meters.m_heartbeats_sent;
  t.send ~dst:peer.peer_id
    (Message.Append_entries
       (ae_request t peer ~prev_opid ~leader_time:now ~reply_route:[]
          (Message.Entries [||])))

(* Multi-Raft heartbeat coalescing: may the empty AE to [peer] be
   skipped this tick?  Only when this group is fully idle towards the
   peer (nothing in flight, log and commit marker both caught up, peer
   has acked this leadership) and the shared transport vouches that the
   peer's node saw a frame from us recently — some co-located group's
   beat carries the liveness for all of them.  The consecutive-skip cap
   bounds how long the peer can go without a real, ack-soliciting AE
   (the lease and the clock cross-check both feed on acks). *)
and hb_suppressible t peer =
  t.params.hb_suppress_limit > 0
  && peer.hb_suppressed < t.params.hb_suppress_limit
  && peer.window.w_len = 0
  && peer.snap = None
  && peer.responded
  && peer.match_index >= last_index t
  && peer.sent_commit >= t.commit_index
  && (match t.transport_carrier with
     | Some carried -> carried ~dst:peer.peer_id
     | None -> false)

and replicate_to t peer ~allow_empty =
  (* A peer mid-install gets neither entries nor heartbeats: its log is
     about to be rebased, and a crossing AppendEntries could anchor at an
     index the install is removing.  The chunk stream doubles as the
     leader's liveness signal to it. *)
  if t.role = Types.Leader && peer.snap = None then begin
    if peer.next_index < Log_store.purged_below t.log then
      (* The frontier fell into the purged hole: no prev anchor exists,
         so ordinary replication cannot make progress.  Flag the wedge
         and try the snapshot rescue. *)
      note_purge_wedge t peer
    else begin
      peer.wedged <- false;
      let sent_entries = ref false in
      let blocked = ref false in
      while
        (not !blocked)
        && peer.window.w_len < t.params.max_inflight_aes
        && peer.next_index <= last_index t
      do
        if send_entry_batch t peer then sent_entries := true else blocked := true
      done;
      if (not !sent_entries) && allow_empty then
        if hb_suppressible t peer then begin
          peer.hb_suppressed <- peer.hb_suppressed + 1;
          Obs.Metrics.incr t.meters.m_hb_suppressed
        end
        else send_heartbeat t peer
    end
  end

(* [peer_array] holds [peers] in [Hashtbl.iter] order, the order sends
   go out in: walking it builds no closure and moves no event. *)
and replicate_all t ~allow_empty =
  let peers = t.peer_array in
  for i = 0 to Array.length peers - 1 do
    replicate_to t peers.(i) ~allow_empty
  done

(* ----- commit marker ----- *)

and advance_commit t =
  if t.role = Types.Leader then begin
    let stamps = Quorum.stamps t.layout in
    for i = 0 to Array.length t.peer_array - 1 do
      let p = t.peer_array.(i) in
      stamps.(p.slot) <- float_of_int p.match_index
    done;
    (* The leader's own ack counts only once its log has fsynced the
       entry — symmetrical with followers reporting their durable
       index. *)
    let n =
      Quorum.commit_point t.layout ~self:(Log_store.synced_index t.log)
        ~above:t.commit_index ~upto:(last_index t)
    in
    if
      n > t.commit_index
      (* Raft safety: only commit entries from the current term directly. *)
      && Log_store.term_of t.log n = t.durable.current_term
    then begin
      commit_through t n;
      (* Reads queued behind "no current-term commit yet" can start
         their confirmation round now. *)
      maybe_start_read_round t
    end
  end

(* ----- linearizable read path: ReadIndex rounds + leader lease ----- *)

(* A fresh leader's commit index is authoritative only once it has
   committed an entry of its own term (the no-op appended on election);
   before that, entries committed by a predecessor may sit above it. *)
and committed_in_current_term t =
  Log_store.term_of t.log t.commit_index = t.durable.current_term

(* Extend the lease from quorum-acked send times: find the latest T such
   that {self} and every peer whose [acked_send_time] >= T satisfy the
   data quorum.  Each such peer reset its election timer at or after T,
   so no election it participates in can complete before
   T + election timeout > T + lease duration + drift margin; and because
   FlexiRaft election quorums intersect data quorums (§4.1), any new
   leader's quorum contains such a voter. *)
and extend_lease t =
  if
    t.role = Types.Leader && t.params.use_leader_lease && (not t.lease_blocked)
    && lease_duration t > 0.0
  then begin
    (* T and its global twin are the (local, global) stamps of the same
       send event; quorum selection runs entirely on the local stamps
       (the only ones a real node has), the global partner just keeps
       the oracle pointed at the same event. *)
    let now = local_now t in
    let stamps = Quorum.stamps t.layout and globals = Quorum.globals t.layout in
    for i = 0 to Array.length t.peer_array - 1 do
      let p = t.peer_array.(i) in
      stamps.(p.slot) <- p.times.acked_send_time;
      globals.(p.slot) <- p.times.acked_send_global
    done;
    if Quorum.lease_point t.layout ~now ~now_global:(Sim.Engine.now t.engine) then begin
      let threshold = Quorum.lease t.layout in
      let until = threshold.(0) +. lease_duration t in
      if until > t.lease.until then begin
        t.lease.until <- until;
        t.lease.until_global <- threshold.(1) +. lease_duration_global t;
        Obs.Metrics.incr t.meters.m_lease_extensions
      end
    end
  end

and revoke_lease t ~reason =
  if t.lease.until > neg_infinity then begin
    tracef t "raft" "%s: lease revoked (%s)" t.id reason;
    Obs.Metrics.incr t.meters.m_lease_revocations
  end;
  t.lease.until <- neg_infinity;
  t.lease.until_global <- neg_infinity

(* Fail every queued and in-flight read; on leadership loss the reads
   must re-resolve against the new leader, not silently time out. *)
and fail_reads t ~reason =
  let queued = List.rev t.read_queue in
  t.read_queue <- [];
  let round_waiters =
    match t.read_round with
    | Some round ->
      Sim.Engine.cancel round.rr_deadline;
      t.read_round <- None;
      round.rr_waiters
    | None -> []
  in
  List.iter (fun k -> k (Error reason)) (round_waiters @ queued)

and maybe_start_read_round t =
  if
    t.role = Types.Leader && (not t.stopped) && t.read_round = None
    && t.read_queue <> []
    && committed_in_current_term t
  then begin
    let waiters = List.rev t.read_queue in
    t.read_queue <- [];
    let marks = Hashtbl.fold (fun pid p acc -> (pid, p.send_seq) :: acc) t.peers [] in
    let round =
      {
        rr_index = t.commit_index;
        rr_marks = marks;
        rr_acks = [];
        rr_waiters = waiters;
        rr_deadline = Sim.Engine.none;
      }
    in
    t.read_round <- Some round;
    Obs.Metrics.incr t.meters.m_readindex_rounds;
    round.rr_deadline <-
      Sim.Clock.schedule t.clock ~delay:(detection_window t) (fun () ->
          match t.read_round with
          | Some r when r == round ->
            t.read_round <- None;
            List.iter (fun k -> k (Error "read-index round timed out")) round.rr_waiters;
            maybe_start_read_round t
          | _ -> ());
    (* The confirmation piggybacks on the replication stream: top up
       windows (or heartbeat) now rather than waiting for the tick. *)
    replicate_all t ~allow_empty:true;
    check_read_round t round (* single-voter rings confirm immediately *)
  end

and check_read_round t round =
  match t.read_round with
  | Some r when r == round ->
    let acks = t.id :: round.rr_acks in
    if
      Quorum.data_quorum_satisfied t.params.quorum_mode (config t)
        ~leader_region:t.region ~acks
    then begin
      Sim.Engine.cancel round.rr_deadline;
      t.read_round <- None;
      List.iter (fun k -> k (Ok round.rr_index)) round.rr_waiters;
      maybe_start_read_round t
    end
  | _ -> ()

(* A success response from [from] to a send issued after the round
   started proves [from] still recognized this leader after the commit
   index was captured. *)
and note_read_ack t ~from ~request_seq =
  match t.read_round with
  | Some round ->
    let mark =
      match List.assoc_opt from round.rr_marks with Some m -> m | None -> max_int
    in
    if request_seq > mark && not (List.mem from round.rr_acks) then begin
      round.rr_acks <- from :: round.rr_acks;
      check_read_round t round
    end
  | None -> ()

(* Resolve a linearizable read index on the leader: the caller receives
   the commit index captured at round start once a data quorum has
   confirmed leadership after the capture (or immediately off the lease
   fast path, when valid). *)
and read_index t k =
  if t.stopped then k (Error "stopped")
  else if t.role <> Types.Leader then k (Error "not the leader")
  else if lease_valid t then begin
    count_stale_lease_serve t;
    k (Ok t.commit_index)
  end
  else begin
    t.read_queue <- k :: t.read_queue;
    maybe_start_read_round t
  end

(* Safety oracle: the lease just passed the node's *local* check, but
   was it still live by the engine's global clock?  A serve past
   [lease.until_global] means the drift margin failed to cover the
   injected clock fault — the exact violation the chaos campaign hunts.
   Counted, never blocked: the checker must see the bug. *)
and count_stale_lease_serve t =
  if Sim.Engine.now t.engine > t.lease.until_global then begin
    Obs.Metrics.incr t.meters.m_stale_serves;
    tracef t "raft" "%s: lease read served %.0f us past global expiry" t.id
      (Sim.Engine.now t.engine -. t.lease.until_global)
  end

and lease_valid t =
  t.role = Types.Leader && t.params.use_leader_lease && (not t.lease_blocked)
  && committed_in_current_term t
  &&
  (* The lease is measured on this node's own clock: validity must be
     judged by the same (possibly faulty) clock, with [lease_duration]'s
     drift margin — not the engine's global time, which a real server
     cannot read.  A clock-suspect verdict suppresses the fast path until
     the suspicion window has drained. *)
  let lnow = local_now t in
  lnow >= t.clock_suspect_until && lnow < t.lease.until

(* ----- config handling (logless reconfiguration) ----- *)

(* Install a config with identity [cfg_id] as this node's current one.
   The single write path for configs from every source — leader change,
   AE gossip, vote-response gossip, snapshot metadata — so the durable
   mirror, peer table, callback and metrics stay consistent.  Callers
   must have checked the ordering ([cfg_id] strictly newer, or the
   leader's own version bump / term rewrite). *)
and install_config t ~cfg_id ~cfg ~why =
  let old = t.cfg in
  t.cfg <- cfg;
  t.cfg_id <- cfg_id;
  t.durable.d_config <- Some (cfg_id, cfg);
  Obs.Metrics.incr t.meters.m_reconfig_adoptions;
  sync_peers t;
  tracef t "raft" "%s: config %s [%s] (%s)" t.id
    (Types.cfg_id_to_string cfg_id)
    (Types.describe_config cfg) why;
  if not (Types.same_members old cfg) then begin
    t.callbacks.on_config_change cfg;
    (* Membership changed under us: re-arm (or disarm) the failover
       clock — this node may have just become, or ceased to be, a
       voter. *)
    reset_election_timer t
  end

(* Keep the leader's peer table in sync with the current config. *)
and sync_peers t =
  if t.role = Types.Leader then begin
    let cfg = config t in
    List.iter
      (fun m ->
        if m.Types.id <> t.id && not (Hashtbl.mem t.peers m.Types.id) then begin
          let peer =
            {
              peer_id = m.Types.id;
              hop = [ m.Types.id ];
              peer_region = m.Types.region;
              slot = 0;
              next_index = last_index t + 1;
              match_index = 0;
              window = window_create t.params.max_inflight_aes;
              send_seq = 0;
              rewind_seq = 0;
              delivered = 0;
              times =
                {
                  srtt = 0.0;
                  acked_send_time = neg_infinity;
                  acked_send_global = neg_infinity;
                };
              ae_budget = max_bytes_per_ae;
              retransmit_timer = Sim.Engine.none;
              retransmit_fire = ignore;
              last_ack = local_now t;
              responded = false;
              hb_sent = [];
              offset_sample = None;
              snap = None;
              wedged = false;
              sent_commit = 0;
              hb_suppressed = 0;
              cfg_acked = Types.cfg_id_zero;
            }
          in
          peer.retransmit_fire <- (fun () -> retransmit_fired t peer);
          Hashtbl.replace t.peers m.Types.id peer
        end)
      cfg.Types.members;
    let stale =
      Hashtbl.fold
        (fun pid _ acc -> if Types.is_member cfg pid then acc else pid :: acc)
        t.peers []
    in
    List.iter
      (fun pid ->
        forget_window t (Hashtbl.find t.peers pid);
        Hashtbl.remove t.peers pid)
      stale;
    (* Lay the quorum out for the new table: each peer learns its slot
       and region, which sends and acks then read without a lookup. *)
    t.layout <- Quorum.layout t.params.quorum_mode cfg ~self:t.id ~leader_region:t.region;
    Array.iteri
      (fun i id ->
        match (Hashtbl.find_opt t.peers id, Types.find_member cfg id) with
        | Some p, Some m ->
          p.slot <- i;
          p.peer_region <- m.Types.region
        | _ -> ())
      (Quorum.slots t.layout);
    t.peer_array <- Array.of_seq (Hashtbl.to_seq_values t.peers)
  end

(* ----- role transitions ----- *)

and step_down t ~term ~new_leader =
  let was_leader = t.role = Types.Leader in
  if term > t.durable.current_term then begin
    t.durable.current_term <- term;
    t.durable.voted_for <- None
  end;
  t.role <- Types.Follower;
  t.leader_id <- new_leader;
  t.election <- None;
  end_transfer t;
  Sim.Engine.cancel t.heartbeat_timer;
  t.heartbeat_timer <- Sim.Engine.none;
  t.last_hb_tick_local <- neg_infinity;
  if was_leader then begin
    tracef t "raft" "%s: stepping down at term %d" t.id t.durable.current_term;
    (* §3.3 demotion: the lease dies with the role — a deposed leader
       must never serve another lease read — and in-flight ReadIndex
       rounds fail over to the new leader. *)
    revoke_lease t ~reason:"step-down";
    t.lease_blocked <- false;
    fail_reads t ~reason:"stepped down";
    reset_peers t;
    t.callbacks.on_step_down ()
  end;
  reset_election_timer t

and become_leader t =
  t.role <- Types.Leader;
  t.leader_id <- Some t.id;
  t.election <- None;
  t.durable.last_known_leader <- Some (t.durable.current_term, t.region);
  Obs.Metrics.incr t.meters.m_elections_won;
  if t.election_started_at > neg_infinity then begin
    Obs.Metrics.record t.meters.m_election_latency
      (Sim.Engine.now t.engine -. t.election_started_at);
    t.election_started_at <- neg_infinity
  end;
  disarm_election_timer t;
  (* A new term starts with no lease and no read state; extensions
     resume from this term's own acks. *)
  t.lease.until <- neg_infinity;
  t.lease.until_global <- neg_infinity;
  t.last_hb_tick_local <- neg_infinity;
  t.lease_blocked <- false;
  fail_reads t ~reason:"new leadership term";
  reset_peers t;
  sync_peers t;
  (* Logless reconfiguration: rewrite the installed config's term to our
     own (version kept).  The rewritten identity dominates any config a
     deposed leader may have installed on a minority at a lower term, so
     gossip converges the ring on OUR config — the config-state analogue
     of the no-op below overwriting an uncommitted log tail. *)
  if t.cfg_id.Types.cfg_term <> t.durable.current_term then
    install_config t
      ~cfg_id:
        {
          Types.cfg_version = t.cfg_id.Types.cfg_version;
          cfg_term = t.durable.current_term;
        }
      ~cfg:t.cfg ~why:"election term rewrite";
  (* Assert leadership with a no-op entry; committing it consensus-commits
     the whole tail of the log (§3.3 promotion step 1). *)
  let noop_index = last_index t + 1 in
  let entry =
    Binlog.Entry.make
      ~opid:(Binlog.Opid.make ~term:t.durable.current_term ~index:noop_index)
      Binlog.Entry.Noop
  in
  append_local t entry;
  tracef t "raft" "%s: elected leader at term %d (noop %d)" t.id t.durable.current_term
    noop_index;
  start_heartbeats t;
  replicate_all t ~allow_empty:true;
  advance_commit t (* single-voter rings commit immediately *);
  t.callbacks.on_leader_start ~noop_index

(* Optional auto step-down (extension; see params): has a data quorum
   acknowledged this leader within the configured window? *)
and quorum_contact_recent t =
  let now = local_now t in
  data_quorum_of t (config t) ~self:true (fun p ->
      now -. p.last_ack <= t.params.auto_step_down_after)

and start_heartbeats t =
  Sim.Engine.cancel t.heartbeat_timer;
  let rec tick () =
    if t.role = Types.Leader && not t.stopped then begin
      (* Tick-interval watchdog: the countdown below was armed for
         [heartbeat_interval] local microseconds at the rate in effect
         then.  If the oscillator's rate changed while the tick was in
         flight, the local elapsed time measured now disagrees with what
         was requested — the one local observable a rate step cannot
         hide, and the only drift detector that still works when a
         partition is starving the ack-based cross-check. *)
      let lnow = local_now t in
      if t.last_hb_tick_local > neg_infinity then begin
        let elapsed = lnow -. t.last_hb_tick_local in
        let tol =
          max (5.0 *. Sim.Engine.ms) (0.02 *. t.params.heartbeat_interval)
        in
        if
          t.params.max_clock_drift > 0.0
          && abs_float (elapsed -. t.params.heartbeat_interval) > tol
        then suspect_clock t ~local_now:lnow ~reason:"heartbeat tick off-interval"
      end;
      t.last_hb_tick_local <- lnow;
      if
        t.params.auto_step_down_after > 0.0
        && (not (quorum_contact_recent t))
        && last_index t > t.commit_index
      then begin
        (* no data-quorum contact within the window and an uncommittable
           tail is building: abdicate instead of blocking clients *)
        tracef t "raft" "%s: auto step-down (no quorum contact)" t.id;
        step_down t ~term:t.durable.current_term ~new_leader:None
      end
      else begin
        (* Loss recovery is the per-peer retransmit timer's job now; the
           tick only tops up windows and keeps followers' failover clocks
           reset. *)
        replicate_all t ~allow_empty:true;
        t.heartbeat_timer <-
          Sim.Clock.schedule t.clock ~delay:t.params.heartbeat_interval tick
      end
    end
  in
  t.heartbeat_timer <- Sim.Clock.schedule t.clock ~delay:t.params.heartbeat_interval tick

(* ----- elections ----- *)

(* Record a new election and ask every other voter for its vote.  Real,
   pre- and mock elections differ only in phase, term and who hears a
   mock verdict. *)
and open_election t ~phase ~election_term ~mock_requester ~transfer =
  let election =
    {
      phase;
      election_term;
      votes = [ t.id ];
      auth_hint = t.durable.last_known_leader;
      vote_hint = t.durable.vote_constraint;
      mock_requester;
      decided = false;
    }
  in
  t.election <- Some election;
  let request =
    Message.Request_vote
      {
        term = election_term;
        candidate = t.id;
        candidate_region = t.region;
        last_opid = last_opid t;
        phase;
        candidate_constraint_term = constraint_term t;
        transfer;
        cfg_id = t.cfg_id;
      }
  in
  List.iter
    (fun m -> if m.Types.id <> t.id && m.Types.voter then t.send ~dst:m.Types.id request)
    (config t).Types.members;
  election

and begin_election ?(transfer = false) t ~phase =
  if vote_floor_blocks t (last_opid t) then
    (* Corruption recovery truncated entries this node may once have
       acked: until replication restores a log at least as up-to-date as
       the pre-truncation tail, campaigning could elect a leader whose
       log misses committed data.  Sit out; the timer re-arms. *)
    tracef t "raft" "%s: election suppressed (log below vote floor)" t.id
  else if is_voter t then begin
    let election_term =
      match phase with
      | Message.Real ->
        t.durable.current_term <- t.durable.current_term + 1;
        t.durable.voted_for <- Some t.id;
        t.durable.current_term
      | Message.Pre | Message.Mock _ -> t.durable.current_term + 1
    in
    (match phase with
    | Message.Real ->
      t.role <- Types.Candidate;
      Obs.Metrics.incr t.meters.m_elections_started;
      (* Anchor election latency at the first Real attempt of this outage;
         back-to-back retries extend the same measurement. *)
      if t.election_started_at = neg_infinity then
        t.election_started_at <- Sim.Engine.now t.engine
    | _ -> ());
    tracef t "raft" "%s: starting %s election for term %d" t.id
      (Message.phase_to_string phase) election_term;
    (* A single-voter ring elects itself instantly. *)
    check_election_quorum t
      (open_election t ~phase ~election_term ~mock_requester:None ~transfer)
  end

and begin_mock_election t ~snapshot ~requester =
  tracef t "raft" "%s: running mock election (snapshot %s)" t.id
    (Binlog.Opid.to_string snapshot);
  let election =
    open_election t ~phase:(Message.Mock { snapshot })
      ~election_term:(t.durable.current_term + 1) ~mock_requester:(Some requester)
      ~transfer:false
  in
  (* Guard against vote loss: decide "failed" after a timeout. *)
  ignore
    (Sim.Clock.schedule t.clock ~delay:mock_election_timeout (fun () ->
         match t.election with
         | Some e when e.phase = Message.Mock { snapshot } && not e.decided ->
           e.decided <- true;
           t.election <- None;
           report_mock t e ~requester ~ok:false
         | _ -> ()));
  check_election_quorum t election

(* Tell the leader that asked for a mock election how it went (§4.3). *)
and report_mock t election ~requester ~ok =
  t.send ~dst:requester
    (Message.Mock_election_result { ok; target = t.id; votes = List.length election.votes })

and best_hint a b =
  match (a, b) with
  | None, h | h, None -> h
  | Some (ta, _), Some (tb, _) -> if tb > ta then b else a

and check_election_quorum t election =
  if not election.decided then begin
    let cfg = config t in
    let satisfied =
      t.force_election_quorum
      || Quorum.election_quorum_satisfied t.params.quorum_mode cfg
           ~candidate_region:t.region
           ~last_leader:(best_hint t.durable.last_known_leader election.auth_hint)
           ~vote_constraint:(best_hint t.durable.vote_constraint election.vote_hint)
           ~votes:election.votes
    in
    if satisfied then begin
      election.decided <- true;
      t.election <- None;
      match (election.phase, election.mock_requester) with
      | Message.Real, _ -> become_leader t
      | Message.Pre, _ -> begin_election t ~phase:Message.Real
      | Message.Mock _, Some requester -> report_mock t election ~requester ~ok:true
      | Message.Mock _, None -> ()
    end
  end

(* ----- vote handling ----- *)

and handle_request_vote t (rv : Message.request_vote) =
  let my_last = last_opid t in
  let log_ok =
    Binlog.Opid.at_least_as_up_to_date_as rv.last_opid my_last
    (* Corruption fence: this node once held (and may have acked) entries
       up to its vote floor; a candidate whose log ends below the floor
       could win without them.  Withhold until the candidate catches up. *)
    && not (vote_floor_blocks t rv.last_opid)
  in
  let now = local_now t in
  let heard_from_leader_recently =
    t.leader_id <> None
    && now -. t.last_leader_contact < detection_window t
  in
  (* FlexiRaft voting history (§4.1): never vote for a candidate whose
     constraint knowledge is staler than ours — its election quorum might
     miss a region that committed data.  The denial response carries our
     constraints, so the candidate learns and retries correctly. *)
  let history_ok = rv.candidate_constraint_term >= constraint_term t in
  (* Logless reconfiguration election restriction: never vote for a
     candidate whose installed config is strictly staler than ours — it
     could assemble a quorum of a config that was already replaced, one
     that need not overlap the quorums committing entries under the
     newer config.  The denial ships our config back (below) so the
     candidate adopts it and retries under the right membership. *)
  let config_ok = Types.cfg_id_at_least rv.cfg_id t.cfg_id in
  if not config_ok then Obs.Metrics.incr t.meters.m_reconfig_vote_denials;
  let granted =
    match rv.phase with
    | Message.Pre ->
      (* Pre-votes don't disturb state; leader stickiness applies. *)
      rv.term > t.durable.current_term && log_ok && history_ok && config_ok
      && not heard_from_leader_recently
    | Message.Mock { snapshot } ->
      (* §4.3: reject when this voter lags the leader's snapshot and sits
         in the candidate's region — it could not serve in the new data
         quorum.  Ordinary replication-pipeline distance is allowed. *)
      let in_candidate_region = t.region = rv.candidate_region in
      let lagging =
        Binlog.Opid.index snapshot - Binlog.Opid.index my_last > mock_lag_allowance
      in
      rv.term > t.durable.current_term && not (in_candidate_region && lagging)
    | Message.Real ->
      if rv.term > t.durable.current_term then step_down t ~term:rv.term ~new_leader:None;
      rv.term = t.durable.current_term && log_ok && history_ok && config_ok
      && (t.durable.voted_for = None || t.durable.voted_for = Some rv.candidate)
      (* Leader stickiness applies to Real votes too, not just Pre.  The
         lease-safety argument needs it: a voter that recently acked the
         leader stays sticky for missed_heartbeats·hb, which outlasts the
         drift-margined lease anchored at that ack — so no election
         quorum (which must intersect the lease's data quorum) can seat
         a new leader while the old lease is live.  Pre-vote alone does
         not give this: a forced election (chaos storm, or any path that
         skips Pre) goes straight to Real.  TimeoutNow-initiated
         transfers are exempt — the initiating leader already voided its
         lease — otherwise handoff to a freshly-heartbeaten target would
         deadlock. *)
      && (rv.transfer || not heard_from_leader_recently)
  in
  (match rv.phase with
  | Message.Real when granted ->
    t.durable.voted_for <- Some rv.candidate;
    (* Voting history: the candidate may win, so its (term, region) is
       now a possible data-quorum location future elections must
       intersect. *)
    (match t.durable.vote_constraint with
    | Some (term, _) when term >= rv.term -> ()
    | _ -> t.durable.vote_constraint <- Some (rv.term, rv.candidate_region));
    (* Granting a real vote fences the erstwhile leader's view and resets
       our failover clock. *)
    if t.role = Types.Leader then step_down t ~term:rv.term ~new_leader:None;
    reset_election_timer t
  | _ -> ());
  (match rv.phase with
  | Message.Real ->
    Obs.Metrics.incr
      (if granted then t.meters.m_votes_granted else t.meters.m_votes_rejected)
  | _ -> ());
  t.send ~dst:rv.candidate
    (Message.Request_vote_response
       {
         term = t.durable.current_term;
         from = t.id;
         granted;
         phase = rv.phase;
         last_known_leader = t.durable.last_known_leader;
         vote_constraint = t.durable.vote_constraint;
         cfg =
           (if Types.cfg_id_newer t.cfg_id rv.cfg_id then Some (t.cfg_id, t.cfg)
            else None);
       })

and handle_vote_response t (vr : Message.vote_response) =
  if vr.term > t.durable.current_term then step_down t ~term:vr.term ~new_leader:None
  else begin
    (* Config gossip on the vote path: a denial from a newer-config voter
       carries the config; adopt it.  If we are no longer a voter under
       it, the candidacy was illegitimate — stand down instead of
       spamming a ring that has moved on. *)
    (match vr.cfg with
    | Some (cid, cfg) when Types.cfg_id_newer cid t.cfg_id ->
      install_config t ~cfg_id:cid ~cfg ~why:("vote gossip from " ^ vr.from);
      if not (is_voter t) then begin
        t.election <- None;
        if t.role = Types.Candidate then t.role <- Types.Follower
      end
    | _ -> ());
    match t.election with
    | Some election when election.phase = vr.phase && not election.decided ->
      election.auth_hint <- best_hint election.auth_hint vr.last_known_leader;
      election.vote_hint <- best_hint election.vote_hint vr.vote_constraint;
      if vr.granted && not (List.mem vr.from election.votes) then begin
        election.votes <- vr.from :: election.votes;
        check_election_quorum t election
      end
    | _ -> ()
  end

(* ----- append entries (follower side) ----- *)

(* The sender is this term's live leader: follow it and hold elections
   off.  AppendEntries and InstallSnapshot share these authority rules. *)
and adopt_leader t ~term ~leader =
  if term > t.durable.current_term || t.role <> Types.Follower then
    step_down t ~term ~new_leader:(Some leader);
  (match t.leader_id with
  | Some l when String.equal l leader -> ()
  | _ -> t.leader_id <- Some leader);
  t.last_leader_contact <- local_now t;
  t.last_leader_rpc <- t.last_leader_contact;
  reset_election_timer t

(* [[dst]], reusing the last proxied response's route tail when it names
   the same leader. *)
and reply_hop_to t dst =
  match t.reply_hop with
  | [ d ] when String.equal d dst -> t.reply_hop
  | _ ->
    let hop = [ dst ] in
    t.reply_hop <- hop;
    hop

(* Answer [ae]; the response retraces its proxy route back to the
   leader (§4.2.1). *)
and reply_append t (ae : Message.append_entries) ~success ~last_log_index
    ~last_appended_index =
  let response =
    Message.Append_entries_response
      {
        term = t.durable.current_term;
        from = t.id;
        success;
        last_log_index;
        last_appended_index;
        request_seq = ae.seq;
        cfg_id = t.cfg_id;
        follower_time = local_now t;
      }
  in
  match ae.reply_route with
  | [] -> t.send ~dst:ae.leader_id response
  | [ h ] ->
    t.send ~dst:h
      (Message.Proxied { next_hops = reply_hop_to t ae.leader_id; inner = response })
  | h :: rest ->
    t.send ~dst:h
      (Message.Proxied { next_hops = rest @ [ ae.leader_id ]; inner = response })

(* Append [t.batch] past the matching prefix (the body of
   [t.append_batch]).  The prev check anchored the batch inside the log,
   and its indexes ascend by one, so once an entry is appended every
   later one is too: the appended entries are a suffix of the batch,
   from [t.batch_from] on. *)
and append_batch t =
  let entries = t.batch in
  let n = Array.length entries in
  let from = ref n in
  for i = 0 to n - 1 do
    let entry = entries.(i) in
    let idx = Binlog.Entry.index entry in
    let have = Log_store.term_of t.log idx in
    if have = Binlog.Entry.term entry then () (* already have it *)
    else if have >= 0 then begin
      (* Conflicting suffix: truncate, clean up GTIDs (§3.3 demotion
         step 4), then append.  Configs are log-free state now —
         truncation does not touch them. *)
      let removed = Log_store.truncate_from t.log ~from_index:idx in
      cut_window t ~from_index:idx removed;
      if removed <> [] then t.callbacks.on_truncated removed;
      append_local t entry;
      if !from = n then from := i
    end
    else if idx = last_index t + 1 then begin
      append_local t entry;
      if !from = n then from := i
    end
  done;
  t.batch_from <- !from

and handle_append_entries t (ae : Message.append_entries) =
  if ae.term < t.durable.current_term then begin
    Obs.Metrics.incr t.meters.m_ae_rejected;
    reply_append t ae ~success:false ~last_log_index:(last_index t)
      ~last_appended_index:(last_index t)
  end
  else begin
    adopt_leader t ~term:ae.term ~leader:ae.leader_id;
    (match t.durable.last_known_leader with
    | Some (term, _) when term >= ae.term -> ()
    | _ -> t.durable.last_known_leader <- Some (ae.term, ae.leader_region));
    (* Logless config gossip: adopt a strictly newer config before the
       prev check — membership is orthogonal to log matching, and the
       reply's [cfg_id] echo must reflect what we now hold either way. *)
    (match ae.cfg with
    | Some cfg when Types.cfg_id_newer ae.cfg_id t.cfg_id ->
      install_config t ~cfg_id:ae.cfg_id ~cfg ~why:("gossip from " ^ ae.leader_id)
    | _ -> ());
    let prev = ae.prev_opid in
    let prev_index = Binlog.Opid.index prev in
    let ok_prev =
      prev_index <= last_index t
      && Log_store.term_of t.log prev_index = Binlog.Opid.term prev
    in
    if not ok_prev then begin
      Obs.Metrics.incr t.meters.m_ae_rejected;
      let hint = if prev_index > last_index t then last_index t else prev_index - 1 in
      reply_append t ae ~success:false ~last_log_index:(max 0 hint)
        ~last_appended_index:(last_index t)
    end
    else begin
      let entries =
        match ae.payload with
        | Message.Entries entries -> entries
        | Message.Refs _ ->
          (* A PROXY_OP reached a final destination un-reconstituted; treat
             as a heartbeat (degraded, §4.2.1). *)
          [||]
      in
      let n = Array.length entries in
      if n > 0 then begin
        (* Coalesce the batch's appends into one fsync (group commit); the
           durable index read for the reply below covers the whole batch. *)
        t.batch <- entries;
        Log_store.with_batched_fsync t.log t.append_batch;
        t.batch <- [||];
        if t.batch_from < n then
          t.callbacks.on_entries_appended entries ~pos:t.batch_from
            ~len:(n - t.batch_from)
      end;
      (* How far THIS request verified our log matches the leader's: the
         prev check plus the entries it carried.  The raw log tail is
         not usable in anything below — after a leadership change it may
         hold a stale-term suffix awaiting truncation, and an old
         leader's divergent entries must never be committed or anchor
         freshness just because a new leader's heartbeat (anchored at a
         low match_index) happened to carry a high commit index. *)
      let confirmed = prev_index + n in
      (* Staleness anchor for bounded reads: once our VERIFIED prefix
         covers the leader's tail as of [leader_time], every write acked
         before that instant (index <= commit_index) is in our log; the
         engine catches up to [commit_index] to actually serve it. *)
      if confirmed >= ae.leader_last_index && ae.leader_time > t.fresh_time then begin
        t.fresh_time <- ae.leader_time;
        t.fresh_index <- ae.commit_index
      end;
      commit_through t (min ae.commit_index confirmed);
      (* Ack only the durable prefix: an fsync-stalled follower must not
         let the leader commit on entries a crash could tear off.  And
         deliberately [confirmed], never the raw log tail — a leftover
         stale-term suffix beyond what the request covered must not look
         like an ack. *)
      reply_append t ae ~success:true ~last_log_index:(Log_store.synced_index t.log)
        ~last_appended_index:confirmed
    end
  end

and handle_append_response t (r : Message.append_response) =
  if r.term > t.durable.current_term then step_down t ~term:r.term ~new_leader:None
  else if t.role = Types.Leader then
    match Hashtbl.find t.peers r.from with
    | exception Not_found -> ()
    | peer ->
      let now = local_now t in
      peer.last_ack <- now;
      peer.responded <- true;
      (* Config gossip bookkeeping: success or failure, the response says
         which config the peer holds — newest wins, and once it matches
         ours the AE stream stops attaching the membership body. *)
      if Types.cfg_id_newer r.cfg_id peer.cfg_acked then peer.cfg_acked <- r.cfg_id;
      (* Quorum clock cross-check: between two acks from the same peer,
         the interval measured on our clock and the interval between the
         peer's reply stamps must agree to within twice the configured
         drift spec (either clock may drift) plus scheduling slack.  A
         leader whose oscillator runs outside spec relative to its quorum
         sees every peer disagree with it and must stop trusting lease
         intervals it measured itself.  This is the detector that catches
         steady-state over-spec drift, which no local observation can. *)
      if t.params.max_clock_drift > 0.0 then begin
        (match peer.offset_sample with
        | Some (prev_ft, prev_local) when now > prev_local +. 1.0 ->
          let d_local = now -. prev_local in
          let d_peer = r.follower_time -. prev_ft in
          let allowed =
            (2.0 *. t.params.max_clock_drift *. d_local) +. (5.0 *. Sim.Engine.ms)
          in
          if abs_float (d_peer -. d_local) > allowed then
            suspect_clock t ~local_now:now ~reason:"clock rate disagrees with quorum"
        | _ -> ());
        peer.offset_sample <- Some (r.follower_time, now)
      end;
      if r.success then begin
        (* Look the acked send up once, in the window and else among the
           remembered empty AEs: its send time feeds the lease.  The
           local and global stamps of the same send event travel in
           lockstep: the local one feeds the lease, the global twin
           feeds the stale-by-global-time oracle. *)
        let w = peer.window in
        let k = w_find w r.request_seq in
        (if k >= 0 then begin
           (* RTT sample when the answered send is still in the window. *)
           let pt = peer.times in
           let rtt = now -. w.w_sent.(k) in
           if pt.srtt <= 0.0 then pt.srtt <- rtt
           else pt.srtt <- (0.8 *. pt.srtt) +. (0.2 *. rtt);
           (* Ack latency inflating well past the smoothed RTT means the
              peer (or path) is congested: back the batch size off. *)
           if rtt > 4.0 *. pt.srtt then shrink_budget peer;
           if w.w_sent.(k) > pt.acked_send_time then begin
             pt.acked_send_time <- w.w_sent.(k);
             pt.acked_send_global <- w.w_sent_global.(k)
           end
         end
         else
           match List.find_opt (fun (seq, _, _) -> seq = r.request_seq) peer.hb_sent with
           | Some (_, sent_local, sent_global) ->
             if sent_local > peer.times.acked_send_time then begin
               peer.times.acked_send_time <- sent_local;
               peer.times.acked_send_global <- sent_global
             end;
             peer.hb_sent <-
               List.filter (fun (seq, _, _) -> seq > r.request_seq) peer.hb_sent
           | None -> ());
        extend_lease t;
        note_read_ack t ~from:r.from ~request_seq:r.request_seq;
        (* [last_appended_index] says how far this response confirmed the
           follower matches our log; cumulative across responses it
           retires every fully-covered send, tolerating response loss,
           duplication and reordering. *)
        if r.last_appended_index > peer.delivered then
          peer.delivered <- r.last_appended_index;
        (* Ranges ascend through the window: the covered sends are a
           prefix. *)
        let retired = ref 0 in
        while w.w_len > 0 && w.w_last.(w.w_head) <= peer.delivered do
          w.w_head <- w_slot w 1;
          w.w_len <- w.w_len - 1;
          incr retired
        done;
        t.inflight <- t.inflight - !retired;
        if w.w_len = 0 then cancel_retransmit peer;
        update_window_gauge t;
        if w_find w r.request_seq >= 0 then
          (* Success that leaves its own send outstanding: the payload
             never arrived (PROXY_OP degraded to a heartbeat en route).
             Replay the window from its start now rather than waiting out
             the retransmit timer. *)
          rewind_window t peer ~from:w.w_first.(w.w_head)
        else if !retired > 0 then grow_budget peer;
        (* Commit-countable ack = durable AND confirmed matching. *)
        let ack = min r.last_log_index peer.delivered in
        if ack > peer.match_index then peer.match_index <- ack;
        advance_commit t;
        check_transfer_progress t;
        replicate_to t peer ~allow_empty:false
      end
      else if r.request_seq > peer.rewind_seq then begin
        (* Nack: the follower diverges before the window.  Drain it and
           fence the outstanding seqs — the cascade of failures the same
           divergence produces for every in-flight AE must rewind only
           once — then step back and re-probe. *)
        Obs.Metrics.incr t.meters.m_nacks;
        (* A follower whose advertised log end sits below its recorded
           match has REGRESSED: crash recovery truncated entries this
           leader had already confirmed matching (torn tail, or the
           corruption scan's truncate-and-refetch).  The monotonicity
           assumption behind [match_index] is void for such a peer — if
           the rewind stays clamped above its log end, every re-probe
           anchors at an index the follower no longer has and
           replication wedges forever.  Dropping the match to the
           surviving prefix is safe: truncation only removes suffixes,
           so everything at or below the new log end was confirmed
           matching before and still is. *)
        if r.last_log_index < peer.match_index then begin
          Obs.Metrics.incr t.meters.m_regressions;
          tracef t "raft" "%s: %s log regressed to %d (match was %d); resetting match"
            t.id r.from r.last_log_index peer.match_index;
          peer.match_index <- r.last_log_index;
          peer.delivered <- min peer.delivered r.last_log_index
        end;
        rewind_window t peer
          ~from:(max 1 (min (peer.next_index - 1) (r.last_log_index + 1)));
        replicate_to t peer ~allow_empty:true
      end

(* ----- snapshot shipping (InstallSnapshot) ----- *)

(* The liveness notion of the safe-purge floor and the snapshot rescue:
   a peer that acked within twice the failure-detection window is
   assumed reachable.  [now] is a {!local_now} reading: each reading of a
   clock that stepped back counts the step again. *)
and peer_recently_acked t ~now peer = now -. peer.last_ack <= 2.0 *. detection_window t

(* The purged-hole wedge: binlog purge removed the prefix this peer still
   needs, so no AppendEntries prev anchor below the boundary can be
   constructed and ordinary replication is stuck forever — the bug this
   subsystem exists to fix.  Count the episode once and try to rescue
   with an engine-checkpoint install. *)
and note_purge_wedge t peer =
  if t.role = Types.Leader && peer.next_index < Log_store.purged_below t.log then begin
    if not peer.wedged then begin
      peer.wedged <- true;
      Obs.Metrics.incr t.meters.m_purge_wedges;
      tracef t "raft" "%s: %s wedged behind purge boundary %d (next_index %d)" t.id
        peer.peer_id
        (Log_store.purged_below t.log)
        peer.next_index
    end;
    (* Only ship a checkpoint to a peer that has recently answered:
       starting a transfer toward a presumed-down peer freezes the
       boundary at today's state, and by the time the peer returns the
       stale image forces it to replay everything committed since.
       Probing instead means the rescue starts on the peer's first
       contact, with a checkpoint taken at that moment. *)
    if peer_recently_acked t ~now:(local_now t) peer then maybe_install_snapshot t peer;
    (* If no transfer is running (peer presumed down, or no checkpoint
       source), keep contact: a wedged peer gets neither entries nor
       ordinary heartbeats (no prev anchor exists below the boundary),
       and a live one would otherwise start elections.  The probe's
       nack refreshes [last_ack], arming the next wedge check. *)
    if peer.snap = None then probe_wedged_peer t peer
  end

(* Empty AppendEntries anchored at the purge boundary — the lowest index
   whose term the compacted log still answers.  A peer behind the
   boundary nacks it (keeping the exchange alive); a peer whose frontier
   was only spuriously rewound confirms it and unwedges. *)
and probe_wedged_peer t peer =
  let boundary = Log_store.purged_below t.log - 1 in
  let prev_term = Log_store.term_of t.log boundary in
  if prev_term >= 0 then
    send_empty t peer (Binlog.Opid.make ~term:prev_term ~index:boundary)

and maybe_install_snapshot t peer =
  if t.role = Types.Leader && (not t.stopped) && peer.snap = None then begin
    match t.callbacks.take_snapshot () with
    | None ->
      (* No checkpoint source (witness leader, or the embedder declined):
         the wedge stays detectable through raft.purge_wedges. *)
      ()
    | Some snapshot
      when Binlog.Opid.index (Snapshot.last snapshot)
           < Log_store.purged_below t.log - 1 ->
      (* The checkpoint ends below the purge boundary; installing it
         would leave the same hole between checkpoint and log. *)
      tracef t "raft" "%s: checkpoint %s cannot cover purge boundary %d" t.id
        (Binlog.Opid.to_string (Snapshot.last snapshot))
        (Log_store.purged_below t.log)
    | Some snapshot ->
      Obs.Metrics.incr t.meters.m_snapshots_taken;
      t.next_snapshot_id <- t.next_snapshot_id + 1;
      let xfer =
        {
          sx_id = t.next_snapshot_id;
          sx_snapshot = snapshot;
          sx_acked = 0;
          sx_timer = Sim.Engine.none;
        }
      in
      (* Entry replication to this peer pauses: drain its window so a
         late ack cannot move the frontier mid-install. *)
      drain_window t peer;
      peer.snap <- Some xfer;
      tracef t "raft" "%s: installing %s on %s (#%d)" t.id
        (Snapshot.describe snapshot)
        peer.peer_id xfer.sx_id;
      send_snapshot_chunk t peer xfer
  end

(* Is this exact transfer still the live one for this exact peer record? *)
and snap_live t peer xfer =
  peer_live t peer && match peer.snap with Some x -> x == xfer | None -> false

and send_snapshot_chunk t peer xfer =
  if snap_live t peer xfer then begin
    let snapshot = xfer.sx_snapshot in
    let chunk =
      Snapshot.chunk snapshot ~offset:xfer.sx_acked
        ~max_bytes:t.params.snapshot_chunk_bytes
    in
    Obs.Metrics.incr t.meters.m_snapshot_chunks_sent;
    Obs.Metrics.add t.meters.m_snapshot_bytes_sent (String.length chunk);
    t.send ~dst:peer.peer_id
      (Message.Install_snapshot
         {
           term = t.durable.current_term;
           leader_id = t.id;
           snapshot_id = xfer.sx_id;
           meta = Snapshot.meta snapshot;
           offset = xfer.sx_acked;
           chunk;
         });
    (* Stop-and-wait: one chunk outstanding per transfer.  A lost chunk
       or ack is resent from the acked offset after the timeout. *)
    arm_snap_timer t xfer ~delay:snapshot_retransmit_timeout (fun () ->
        if snap_live t peer xfer then begin
          Obs.Metrics.incr t.meters.m_snapshot_retransmits;
          send_snapshot_chunk t peer xfer
        end)
  end

(* A transfer has one timer: chunk pacing or the chunk's resend. *)
and arm_snap_timer t xfer ~delay f =
  cancel_snap_timer xfer;
  xfer.sx_timer <-
    Sim.Clock.schedule t.clock ~delay (fun () ->
        xfer.sx_timer <- Sim.Engine.none;
        f ())

and handle_install_snapshot_response t (r : Message.install_snapshot_response) =
  if r.term > t.durable.current_term then step_down t ~term:r.term ~new_leader:None
  else if t.role = Types.Leader then
    match Hashtbl.find_opt t.peers r.from with
    | None -> ()
    | Some peer -> (
      match peer.snap with
      | Some xfer when xfer.sx_id = r.snapshot_id ->
        peer.last_ack <- local_now t;
        peer.responded <- true;
        if not r.success then begin
          (* Checksum failure or refusal: drop the transfer.  If the peer
             is still wedged, the next replication attempt starts a fresh
             one from a fresh checkpoint. *)
          Obs.Metrics.incr t.meters.m_snapshot_aborts;
          cancel_snap peer;
          tracef t "raft" "%s: snapshot #%d to %s aborted by follower" t.id xfer.sx_id
            r.from
        end
        else begin
          let total = Snapshot.size xfer.sx_snapshot in
          if r.received_through >= total then begin
            (* Installed: the follower holds the engine state and an
               empty (or matching) log tail at the boundary; resume
               ordinary replication from just above it.  The boundary
               counts toward commit — the checkpoint covers applied,
               committed state, now durably on the follower. *)
            cancel_snap peer;
            peer.wedged <- false;
            let b = Binlog.Opid.index (Snapshot.last xfer.sx_snapshot) in
            peer.next_index <- b + 1;
            peer.match_index <- max peer.match_index b;
            peer.delivered <- max peer.delivered b;
            Obs.Metrics.incr t.meters.m_snapshots_sent;
            tracef t "raft" "%s: snapshot #%d installed on %s (boundary %d)" t.id
              xfer.sx_id r.from b;
            advance_commit t;
            replicate_to t peer ~allow_empty:true
          end
          else begin
            if r.received_through > xfer.sx_acked then
              xfer.sx_acked <- r.received_through;
            (* Pace the stream so a bulk install cannot monopolize the
               link the entry-AE pipeline shares. *)
            let delay =
              float_of_int t.params.snapshot_chunk_bytes
              /. snapshot_rate_bytes_per_s *. Sim.Engine.s
            in
            arm_snap_timer t xfer ~delay (fun () -> send_snapshot_chunk t peer xfer)
          end
        end
      | _ -> ())

(* ----- snapshot receipt (follower side) ----- *)

and handle_install_snapshot t (is : Message.install_snapshot) =
  let reply success received_through =
    t.send ~dst:is.leader_id
      (Message.Install_snapshot_response
         {
           term = t.durable.current_term;
           from = t.id;
           snapshot_id = is.snapshot_id;
           received_through;
           success;
         })
  in
  if is.term < t.durable.current_term then reply false 0
  else begin
    adopt_leader t ~term:is.term ~leader:is.leader_id;
    let last = is.meta.Snapshot.last in
    let boundary = Binlog.Opid.index last in
    if Log_store.term_of t.log boundary = Binlog.Opid.term last then
      (* Our log already matches through the boundary: nothing to
         install (duplicate transfer, or we caught up in the interim).
         A full ack completes the leader's transfer. *)
      reply true is.meta.Snapshot.total_bytes
    else begin
      let pi =
        match t.pending_install with
        | Some pi when pi.pi_id = is.snapshot_id && pi.pi_leader = is.leader_id -> pi
        | _ ->
          let pi =
            {
              pi_leader = is.leader_id;
              pi_id = is.snapshot_id;
              pi_meta = is.meta;
              pi_buf = Buffer.create (max 64 is.meta.Snapshot.total_bytes);
            }
          in
          t.pending_install <- Some pi;
          pi
      in
      let have = Buffer.length pi.pi_buf in
      (* In-order chunk: append.  Duplicate or gap: just re-ack the
         contiguous prefix; the stop-and-wait sender resumes from it. *)
      if is.offset = have then Buffer.add_string pi.pi_buf is.chunk;
      let have = Buffer.length pi.pi_buf in
      if have >= is.meta.Snapshot.total_bytes then begin
        t.pending_install <- None;
        let data = Buffer.contents pi.pi_buf in
        if not (Snapshot.verify_data pi.pi_meta data) then begin
          (* Corrupted in transit (or a mixed-up transfer): refuse, which
             aborts the leader's transfer and lets it restart cleanly. *)
          Obs.Metrics.incr t.meters.m_snapshot_aborts;
          tracef t "raft" "%s: snapshot #%d failed verification; refusing" t.id
            is.snapshot_id;
          reply false 0
        end
        else begin
          finish_install t ~meta:pi.pi_meta ~data;
          reply true have
        end
      end
      else reply true have
    end
  end

(* Apply a complete, verified snapshot: rebase the log at the boundary,
   splice the membership history, restore the engine, and advance the
   commit index over the prefix that no longer exists. *)
and finish_install t ~meta ~data =
  let last = meta.Snapshot.last in
  let b = Binlog.Opid.index last in
  tracef t "raft" "%s: installing snapshot at %s (%d bytes)" t.id
    (Binlog.Opid.to_string last) (String.length data);
  (* A conflicting tail dropped by the rebase gets the same §3.3-step-4
     cleanup a truncation does. *)
  let removed = Log_store.install_snapshot t.log ~last ~gtids:meta.Snapshot.gtids in
  cut_window t ~from_index:1 removed;
  if removed <> [] then t.callbacks.on_truncated removed;
  (* Logless reconfiguration: the snapshot carries the config identity
     as of the boundary; ordinary newest-wins ordering decides adoption
     (a node restored from an old checkpoint must not regress a config
     it already held). *)
  if Types.cfg_id_newer meta.Snapshot.cfg_id t.cfg_id then
    install_config t ~cfg_id:meta.Snapshot.cfg_id ~cfg:meta.Snapshot.config
      ~why:"snapshot install";
  t.callbacks.install_snapshot ~snapshot:{ Snapshot.meta; data };
  Obs.Metrics.incr t.meters.m_snapshots_installed;
  (* Everything the checkpoint covers is committed by definition. *)
  commit_through t b;
  (* The restored state is at least as up-to-date as anything this node
     ever acked below the boundary: a post-corruption vote floor at or
     below the tail is satisfied. *)
  match t.vote_floor with
  | Some fl when Binlog.Opid.at_least_as_up_to_date_as (last_opid t) fl ->
    t.vote_floor <- None
  | _ -> ()

(* ----- leadership transfer (§2.2 promotion + §4.3 mock elections) ----- *)

(* Disarm the deadline and forget the transfer, however it ended. *)
and end_transfer t =
  match t.transfer with
  | Some tr ->
    Sim.Engine.cancel tr.transfer_deadline;
    t.transfer <- None
  | None -> ()

and abort_transfer t ~reason =
  match t.transfer with
  | None -> ()
  | Some tr ->
    end_transfer t;
    (* The transfer died before TimeoutNow went out: no election was
       enabled to bypass a timeout, so lease extensions may resume. *)
    t.lease_blocked <- false;
    tracef t "raft" "%s: transfer to %s aborted: %s" t.id tr.transfer_target reason;
    if tr.quiesced then t.callbacks.on_transfer_aborted ~reason

and start_transfer_catchup t tr =
  (* Quiesce: stop accepting client writes, then push the target to the
     tail of the log and fire TimeoutNow. *)
  tr.quiesced <- true;
  t.callbacks.on_quiesce ();
  (match Hashtbl.find_opt t.peers tr.transfer_target with
  | Some peer -> replicate_to t peer ~allow_empty:true
  | None -> ());
  check_transfer_progress t

and check_transfer_progress t =
  match t.transfer with
  | Some tr when tr.quiesced && t.role = Types.Leader -> (
    match Hashtbl.find_opt t.peers tr.transfer_target with
    | Some peer when peer.match_index >= last_index t ->
      tracef t "raft" "%s: target %s caught up; sending TimeoutNow" t.id tr.transfer_target;
      t.send ~dst:tr.transfer_target (Message.Timeout_now { term = t.durable.current_term });
      end_transfer t
    | _ -> ())
  | _ -> ()

let transfer_leadership t ~target =
  if t.role <> Types.Leader then Error "not the leader"
  else if target = t.id then Error "cannot transfer to self"
  else
    match Types.find_member (config t) target with
    | None -> Error "target is not a member"
    | Some m when not m.Types.voter -> Error "target is not a voter"
    | Some _ ->
      if t.transfer <> None then Error "transfer already in progress"
      else begin
        let deadline =
          Sim.Clock.schedule t.clock ~delay:transfer_timeout (fun () ->
              abort_transfer t ~reason:"timeout")
        in
        let tr = { transfer_target = target; quiesced = false; transfer_deadline = deadline } in
        t.transfer <- Some tr;
        (* LeaseGuard: the mock election / TimeoutNow path lets the
           target win without waiting out an election timeout, voiding
           the timing argument behind the lease.  Revoke it and block
           re-extension for the span of the transfer; it stays blocked
           after TimeoutNow fires until the new term is observed. *)
        t.lease_blocked <- true;
        revoke_lease t ~reason:"leadership transfer";
        if t.params.use_mock_elections then begin
          tracef t "raft" "%s: mock election on %s before transfer" t.id target;
          t.send ~dst:target
            (Message.Run_mock_election
               { term = t.durable.current_term; snapshot = last_opid t; requester = t.id })
        end
        else start_transfer_catchup t tr;
        Ok ()
      end

let handle_mock_result t (ok, target) =
  match t.transfer with
  | Some tr when tr.transfer_target = target && not tr.quiesced ->
    if ok then start_transfer_catchup t tr
    else abort_transfer t ~reason:"mock election failed"
  | _ -> ()

(* ----- client/API operations ----- *)

let client_append t payload =
  if t.role <> Types.Leader then Error "not the leader"
  else begin
    let opid =
      Binlog.Opid.make ~term:t.durable.current_term ~index:(last_index t + 1)
    in
    append_local t (Binlog.Entry.make ~opid payload);
    replicate_all t ~allow_empty:false;
    advance_commit t;
    Ok opid
  end

(* C1 (config commitment): a data quorum of the CURRENT config holds the
   current config in the current term.  Until it does, the previous
   config may still be live on a quorum and a further change could strand
   the ring between two non-overlapping memberships. *)
let config_committed t =
  t.role = Types.Leader
  && t.cfg_id.Types.cfg_term = t.durable.current_term
  && data_quorum_of t t.cfg ~self:true (fun p -> Types.cfg_id_at_least p.cfg_acked t.cfg_id)

(* C2 (oplog commitment overlap): everything committed in the current
   term is already replicated to a data quorum of the NEW config, so no
   committed entry depends on a quorum the new config cannot reproduce. *)
let oplog_covers t new_config =
  committed_in_current_term t
  &&
  let n = t.commit_index in
  data_quorum_of t new_config
    ~self:(Log_store.synced_index t.log >= n)
    (fun p -> p.match_index >= n)

let change_membership t new_config ~description =
  let ids = Types.member_ids new_config in
  if t.role <> Types.Leader then Error "not the leader"
  else if not (config_committed t) then
    Error "a membership change is already in progress"
  else if Types.voters new_config = [] then Error "new config has no voters"
  else if List.length (List.sort_uniq compare ids) <> List.length ids then
    Error "duplicate member ids"
  else
    match Types.find_member new_config t.id with
    | None -> Error "leader cannot remove itself (transfer first)"
    | Some m when not m.Types.voter ->
      Error "leader cannot demote itself (transfer first)"
    | Some _ ->
      if not (oplog_covers t new_config) then
        Error "current-term commits not yet covered by a quorum of the new config"
      else begin
        let cfg_id =
          {
            Types.cfg_version = t.cfg_id.Types.cfg_version + 1;
            cfg_term = t.durable.current_term;
          }
        in
        Obs.Metrics.incr t.meters.m_reconfig_changes;
        install_config t ~cfg_id ~cfg:new_config ~why:description;
        (* Gossip immediately: the change "commits" (C1 for the *next*
           change) once a quorum of the new config acks this identity. *)
        replicate_all t ~allow_empty:true;
        Ok cfg_id
      end

let add_member t member =
  let cfg = config t in
  if Types.is_member cfg member.Types.id then Error "already a member"
  else
    change_membership t
      { Types.members = cfg.Types.members @ [ member ] }
      ~description:("add " ^ Types.describe_member member)

let remove_member t member_id =
  let cfg = config t in
  if member_id = t.id then Error "leader cannot remove itself (transfer first)"
  else if not (Types.is_member cfg member_id) then Error "not a member"
  else
    change_membership t
      { Types.members = List.filter (fun m -> m.Types.id <> member_id) cfg.Types.members }
      ~description:("remove " ^ member_id)

(* Promotion and demotion are one change: flip a member's voter flag. *)
let set_voter t member_id ~voter =
  let cfg = config t in
  match Types.find_member cfg member_id with
  | None -> Error "not a member"
  | Some m when m.Types.voter = voter ->
    Error (if voter then "already a voter" else "already a learner")
  | Some m ->
    let members =
      List.map
        (fun x -> if x.Types.id = member_id then { m with Types.voter } else x)
        cfg.Types.members
    in
    change_membership t { Types.members }
      ~description:((if voter then "promote " else "demote ") ^ member_id)

let promote_learner t member_id = set_voter t member_id ~voter:true

let demote_voter t member_id = set_voter t member_id ~voter:false

(* Chain an additional observer behind whatever the embedder already
   wired: config events fan out to the state machine first, then to
   late subscribers (shard router caches, healers, tests). *)
let subscribe_config_change t f =
  let prev = t.callbacks.on_config_change in
  t.callbacks.on_config_change <- (fun cfg -> prev cfg; f cfg)

(* Derived, never stored: a change is "pending" while its config has not
   yet been acknowledged by a quorum of itself in the current term.  A
   leader crash mid-reconfig therefore cannot wedge the successor — the
   new leader's term rewrite starts a fresh commitment cycle, and a
   demoted or restarted node reports false (it is not the leader). *)
let has_pending_config_change t = t.role = Types.Leader && not (config_committed t)

let trigger_election t =
  if t.role <> Types.Leader && is_voter t then begin_election t ~phase:Message.Real

(* Region watermark: the highest log index known to have reached at least
   one member of [region]; the purge heuristics of §A.1 take the minimum
   across regions so a file is only purged once shipped out of every
   region. *)
let region_watermark t ~region:r =
  if t.role <> Types.Leader then 0
  else
    Hashtbl.fold
      (fun _ p acc -> if p.peer_region = r then max acc p.match_index else acc)
      t.peers
      (if t.region = r then last_index t else 0)

let safe_purge_index t =
  if t.role <> Types.Leader then 0
  else begin
    (* §A.1 region watermarks: a file may only go once its contents have
       been shipped into every voter region. *)
    let regions = Types.regions_with_voters (config t) in
    let watermark =
      List.fold_left (fun acc r -> min acc (region_watermark t ~region:r)) max_int regions
    in
    (* Cluster-wide floor: learners and other non-voting members tail
       this log too, and the region watermarks ignore them — purging past
       a live peer's confirmed prefix (or under the base of its in-flight
       window) wedges it behind the hole the moment its next batch needs
       a prev anchor there.  A peer is live while it acked within a grace
       window; one silent longer is presumed down and excluded, since
       holding the floor for it forever would mean never purging (the
       snapshot rescue covers it when it returns).  An in-flight snapshot
       install fences the floor at its boundary so the tail the install
       resumes into stays intact. *)
    let now = local_now t in
    let peer_floor =
      Hashtbl.fold
        (fun _ p acc ->
          match p.snap with
          | Some xfer -> min acc (Binlog.Opid.index (Snapshot.last xfer.sx_snapshot))
          | None ->
            if peer_recently_acked t ~now p then begin
              let w = p.window in
              min acc
                (if w.w_len = 0 then p.match_index
                 else min p.match_index (w.w_first.(w.w_head) - 1))
            end
            else acc)
        t.peers max_int
    in
    min (min watermark peer_floor) t.commit_index
  end

let match_index_of t ~peer =
  match Hashtbl.find_opt t.peers peer with Some p -> Some p.match_index | None -> None

let snapshot_in_flight t ~peer =
  match Hashtbl.find_opt t.peers peer with
  | Some p -> p.snap <> None
  | None -> false

(* The embedder coalesced a group of its own appends into one fsync
   (group commit on the leader's write path): the local durable index
   just advanced, so entries may now commit — quorums the leader's own
   vote completes (e.g. single-voter rings) would otherwise stall until
   the next response arrives. *)
let notify_log_synced t = advance_commit t

(* ----- read-path API ----- *)

(* Resolve a read index from any role: leaders run {!read_index}
   locally, followers/learners forward to the last known leader and wait
   (bounded) for its reply. *)
let remote_read_index t k =
  if t.stopped then k (Error "stopped")
  else if t.role = Types.Leader then read_index t k
  else
    match t.leader_id with
    | None -> k (Error "no known leader")
    | Some leader ->
      let rid = t.next_read_rid in
      t.next_read_rid <- rid + 1;
      let timer =
        Sim.Clock.schedule t.clock ~delay:(detection_window t) (fun () ->
            match Hashtbl.find_opt t.pending_remote_reads rid with
            | Some (k, _) ->
              Hashtbl.remove t.pending_remote_reads rid;
              k (Error "read-index forward timed out")
            | None -> ())
      in
      Hashtbl.replace t.pending_remote_reads rid (k, timer);
      t.send ~dst:leader (Message.Read_index_request { rid; from = t.id })

let lease_valid t = lease_valid t

(* The leader-lease read index: the commit index when the lease is valid
   (and the node running), else -1.  Same check and the same stale-lease
   oracle as {!read_index}'s fast path, with no continuation and no
   [Ok] box: a lease read reads it once at dispatch.  When it answers -1
   the caller falls back on {!remote_read_index}. *)
let lease_read_index t =
  if lease_valid t && not t.stopped then begin
    count_stale_lease_serve t;
    t.commit_index
  end
  else -1

let lease_until t = t.lease.until

let lease_blocked t = t.lease_blocked

(* Stale-lease oracle readout: lease fast-path serves issued after the
   lease had expired by *global* time.  Any non-zero delta between checker
   sweeps is a linearizability-safety violation. *)
let lease_stale_serves t = Obs.Metrics.counter_value t.meters.m_stale_serves

let clock t = t.clock

(* Recovery hook: crash recovery truncated the log at a corrupt entry;
   [opid] is the pre-truncation tail.  Until replication restores the log
   past it, this node neither campaigns nor votes for candidates whose
   logs end below it (see [vote_floor_blocks]). *)
let set_vote_floor t opid =
  if not (Binlog.Opid.at_least_as_up_to_date_as (last_opid t) opid) then begin
    t.vote_floor <- Some opid;
    tracef t "raft" "%s: vote floor set at %s (post-corruption)" t.id
      (Binlog.Opid.to_string opid)
  end

let staleness_anchor t =
  if t.role = Types.Leader then (Sim.Clock.now t.clock, t.commit_index)
  else (t.fresh_time, t.fresh_index)

(* ----- proxy forwarding (§4.2) ----- *)

(* The entries [first, last] from our log as one right-sized array, or
   [[||]] when one of them is not held. *)
let gather_entries t ~first ~last =
  let n = last - first + 1 in
  let entries =
    Log_store.read_slice t.log ~max_bytes:max_int ~from_index:first ~max_count:n
  in
  if Array.length entries = n then entries else [||]

let deliver_reconstituted t ~dst (ae : Message.append_entries) ~first_index ~last_index:last
    ~expected_last_term =
  (* Reconstitute the PROXY_OP payload from our local log.  If our copy of
     [last] does not carry the term the leader expects, our log has not
     caught up to the leader's view; degrade rather than ship stale data. *)
  let entries =
    if Log_store.term_of t.log last = expected_last_term then
      gather_entries t ~first:first_index ~last
    else [||]
  in
  let payload =
    if Array.length entries > 0 then begin
      Obs.Metrics.incr t.meters.m_proxy_reconstitutions;
      Message.Entries entries
    end
    else begin
      Obs.Metrics.incr t.meters.m_proxy_degraded;
      Message.Entries [||] (* degraded to heartbeat *)
    end
  in
  t.send ~dst (Message.Append_entries { ae with payload })

let handle_proxied t ~next_hops ~inner =
  match next_hops with
  | [] -> None (* malformed; treat inner as addressed to us *)
  | [ dst ] -> (
    match inner with
    | Message.Append_entries
        ({ payload = Message.Refs { first_index; last_index = last; last_term }; _ } as ae)
      ->
      (* We are the final proxy: wait (bounded) for our log to contain the
         referenced entries, then reconstitute.  A log that already holds
         them delivers at once, with no wait armed. *)
      let expected_last_term = last_term in
      let held () = Binlog.Opid.index (Log_store.last_opid t.log) >= last in
      if held () then
        deliver_reconstituted t ~dst ae ~first_index ~last_index:last ~expected_last_term
      else begin
        let deadline = Sim.Clock.now t.clock +. proxy_wait in
        let rec attempt () =
          if t.stopped then ()
          else if held () || Sim.Clock.now t.clock >= deadline then
            deliver_reconstituted t ~dst ae ~first_index ~last_index:last ~expected_last_term
          else ignore (Sim.Clock.schedule t.clock ~delay:proxy_retry_interval attempt)
        in
        ignore (Sim.Clock.schedule t.clock ~delay:proxy_retry_interval attempt)
      end;
      Some ()
    | _ ->
      t.send ~dst inner;
      Some ())
  | h :: rest ->
    t.send ~dst:h (Message.Proxied { next_hops = rest; inner });
    Some ()

(* ----- message dispatch ----- *)

let rec handle_message t ~src msg =
  if not t.stopped then
    match msg with
    | Message.Append_entries ae -> handle_append_entries t ae
    | Message.Append_entries_response r -> handle_append_response t r
    | Message.Request_vote rv -> handle_request_vote t rv
    | Message.Request_vote_response vr -> handle_vote_response t vr
    | Message.Timeout_now { term } ->
      if term >= t.durable.current_term && is_voter t && t.role <> Types.Leader then begin
        tracef t "raft" "%s: TimeoutNow received; starting election" t.id;
        begin_election t ~phase:Message.Real ~transfer:true
      end
    | Message.Run_mock_election { snapshot; requester; _ } ->
      begin_mock_election t ~snapshot ~requester
    | Message.Mock_election_result { ok; target; _ } -> handle_mock_result t (ok, target)
    | Message.Read_index_request { rid; from } ->
      let reply result =
        let index, error = match result with Ok i -> (i, None) | Error e -> (0, Some e) in
        t.send ~dst:from (Message.Read_index_reply { rid; index; error })
      in
      if t.role = Types.Leader then begin
        Obs.Metrics.incr t.meters.m_readindex_forwarded;
        read_index t reply
      end
      else reply (Error "not the leader")
    | Message.Install_snapshot is -> handle_install_snapshot t is
    | Message.Install_snapshot_response r -> handle_install_snapshot_response t r
    | Message.Read_index_reply { rid; index; error } -> (
      match Hashtbl.find_opt t.pending_remote_reads rid with
      | Some (k, timer) ->
        Hashtbl.remove t.pending_remote_reads rid;
        Sim.Engine.cancel timer;
        (match error with Some e -> k (Error e) | None -> k (Ok index))
      | None -> ())
    | Message.Proxied { next_hops; inner } -> (
      match handle_proxied t ~next_hops ~inner with
      | Some () -> ()
      | None -> handle_message t ~src inner)

(* ----- lifecycle ----- *)

let create ?metrics ?tracebuf ?clock ?(group = 0) ~engine ~id ~region ~send ~log
    ~callbacks ~params ~initial_config ~durable ~trace () =
  let metrics = match metrics with Some m -> m | None -> Obs.Metrics.create ~node:id () in
  let clock =
    match clock with Some c -> c | None -> Sim.Clock.create ~engine ()
  in
  (* Logless reconfiguration: the durable mirror outranks the bootstrap
     config on restart — the log is not scanned (configs never ride it). *)
  let init_cfg_id, init_cfg =
    match durable.d_config with
    | Some (cid, c) -> (cid, c)
    | None -> (Types.cfg_id_zero, initial_config)
  in
  let t =
    {
      engine;
      clock;
      id;
      region;
      group;
      send;
      log;
      durable;
      params;
      trace;
      rng = Sim.Rng.split (Sim.Engine.rng engine);
      callbacks;
      win_first = 0;
      win_bytes = 0;
      role = Types.Follower;
      leader_id = None;
      commit_index = 0;
      cfg = init_cfg;
      cfg_id = init_cfg_id;
      peers = Hashtbl.create 16;
      election = None;
      election_timer = Sim.Engine.none;
      election_fire = ignore;
      heartbeat_timer = Sim.Engine.none;
      transfer = None;
      force_election_quorum = false;
      stopped = false;
      last_leader_contact = neg_infinity;
      metrics;
      meters = make_meters metrics;
      tracebuf;
      layout = no_layout;
      peer_array = [||];
      inflight = 0;
      election_started_at = neg_infinity;
      lease = { until = neg_infinity; until_global = neg_infinity };
      lease_blocked = false;
      read_round = None;
      read_queue = [];
      next_read_rid = 0;
      pending_remote_reads = Hashtbl.create 16;
      fresh_time = neg_infinity;
      fresh_index = 0;
      batch = [||];
      batch_from = 0;
      append_batch = ignore;
      reply_hop = [];
      last_local_now = Sim.Clock.now clock;
      clock_suspect_until = neg_infinity;
      last_hb_tick_local = neg_infinity;
      next_snapshot_id = 0;
      pending_install = None;
      vote_floor = None;
      transport_carrier = None;
      last_transport_reset = neg_infinity;
      last_leader_rpc = neg_infinity;
    }
  in
  t.election_fire <- (fun () -> on_election_timeout t);
  t.append_batch <- (fun () -> append_batch t);
  reset_election_timer t;
  t

let stop t =
  t.stopped <- true;
  disarm_election_timer t;
  Sim.Engine.cancel t.heartbeat_timer;
  t.heartbeat_timer <- Sim.Engine.none;
  end_transfer t;
  cancel_peer_timers t;
  t.pending_install <- None;
  t.lease.until <- neg_infinity;
  t.lease.until_global <- neg_infinity;
  fail_reads t ~reason:"node stopped";
  let remote = Hashtbl.fold (fun rid v acc -> (rid, v) :: acc) t.pending_remote_reads [] in
  Hashtbl.reset t.pending_remote_reads;
  List.iter
    (fun (_, (k, timer)) ->
      Sim.Engine.cancel timer;
      k (Error "node stopped"))
    remote

(* ----- shard-mux transport liveness (multi-Raft) ----- *)

let set_transport_carrier t f = t.transport_carrier <- Some f

(* The shared transport delivered a frame from [from]'s node to ours:
   the process hosting our leader is alive and reachable, which is
   exactly what an empty AppendEntries would have proven.  Reset the
   failover clock iff [from] is the leader we are currently following —
   frames from anyone else say nothing about our leader.  Rate-limited
   to half a heartbeat interval so a busy link does not re-arm the timer
   on every packet.

   A live process is not a live leader: after a crash and restart the
   leader's node keeps framing its other groups' traffic while its
   instance of this group is a fresh follower.  A leader that suppresses
   heartbeats still sends a real one every [hb_suppress_limit + 1]
   intervals, so liveness counts only while real group-level contact is
   that recent; past it the election timer runs out as it would without
   a shared transport. *)
let note_transport_liveness t ~from =
  if (not t.stopped) && t.role = Types.Follower && t.leader_id = Some from then begin
    let lnow = local_now t in
    let contact_window =
      float_of_int (t.params.hb_suppress_limit + 1) *. t.params.heartbeat_interval
    in
    if
      lnow -. t.last_leader_rpc < contact_window
      && lnow -. t.last_transport_reset >= 0.5 *. t.params.heartbeat_interval
    then begin
      t.last_transport_reset <- lnow;
      t.last_leader_contact <- lnow;
      Obs.Metrics.incr t.meters.m_transport_resets;
      reset_election_timer t
    end
  end

let describe t =
  Printf.sprintf "%s: %s term=%d commit=%d last=%s leader=%s" t.id
    (Types.role_to_string t.role) t.durable.current_term t.commit_index
    (Binlog.Opid.to_string (last_opid t))
    (Option.value t.leader_id ~default:"?")
