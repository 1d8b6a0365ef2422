(** The nemesis: draws faults from a {!Schedule}, applies them through
    an {!ops} record (so the same engine drives a full MyRaft cluster or
    the bare Raft test harness), bounds how many are outstanding, and
    auto-heals each after a random delay.  Everything stochastic flows
    through one RNG, so a chaos run is fully determined by its seed and
    the repro command printed on a violation replays the identical
    schedule. *)

(** Control surface over the system under test.  [Sim.Network.t] is
    typed over the protocol message, so the nemesis reaches it through
    closures rather than holding it directly. *)
type ops = {
  node_ids : string list;
  region_of : string -> string;
  is_up : string -> bool;
  leader : unit -> string option;
  crash : string -> unit;
  restart : string -> unit;
  isolate : string -> unit;
  heal_node : string -> unit;
  cut_regions : string -> string -> unit;
  heal_regions : string -> string -> unit;
  set_node_faults : string -> Sim.Network.fault_spec -> unit;
  clear_node_faults : string -> unit;
  heal_all_network : unit -> unit;
  store_of : string -> Binlog.Log_store.t option;
  transfer : target:string -> (unit, string) result;
  clock_of : string -> Sim.Clock.t option;
  set_link_faults : src:string -> dst:string -> Sim.Network.fault_spec -> unit;
  clear_link_faults : src:string -> dst:string -> unit;
  force_election : string -> unit;
}

type t

val create :
  engine:Sim.Engine.t ->
  trace:Sim.Trace.t ->
  rng:Sim.Rng.t ->
  spec:Schedule.t ->
  ops:ops ->
  t

(** One scheduling tick: with probability [inject_p], draw a fault from
    the mix and apply it if its preconditions hold (never blocks). *)
val step : t -> unit

(** Force-heal everything: reconnect the network, flush every buffered
    store, resync every skewed clock, restart every down node. *)
val heal_now : t -> unit

(** The nemesis's own chaos.* injection counters (one
    [chaos.injected.<kind>] counter per fault kind). *)
val metrics_snapshot : t -> Obs.Metrics.snapshot


val injections : t -> (Schedule.fault_kind * int) list

(** {2 Deployments} *)

(** What a chaos run drives: a classic cluster or a multi-Raft
    deployment.  Engine and trace come from the first group (shared by
    every group in multi-Raft mode).  Store, clock, transfer and
    forced-election faults aim at group 0; crash, restart, isolate and
    heal hit a node's instance of every group. *)
type deployment = {
  groups : Myraft.Cluster.t list;  (** one element for a classic cluster *)
  backend : Workload.Backend.t;  (** the client front door *)
  ops : ops;
  metrics : unit -> Obs.Metrics.snapshot;  (** deployment-wide snapshot *)
}

val of_cluster : Myraft.Cluster.t -> deployment

val of_multi : Shard.Multi.t -> deployment

(** {2 The harness: client, checkers, settle} *)

(** One probe per member.  [probe_up] also requires membership in the
    newest installed config across live nodes, so evicted members leave
    the checks. *)
val probes_of_cluster : Myraft.Cluster.t -> Invariants.probe list

(** A deployment under an open-loop client, with one invariant checker
    per group (same order as [dep.groups]). *)
type harness = {
  dep : deployment;
  gen : Workload.Generator.t;
  invs : Invariants.t list;
}

(** Start the open-loop client (in r1) and the checkers. *)
val start : deployment -> client_id:string -> rate_per_s:float -> harness

(** Give newly provisioned members a probe, then run every group's
    invariants once. *)
val check : harness -> unit

(** Stop the client and run until every group settles over its current
    membership (one leader, equal commit indexes, log tails and config
    identity, drained appliers) or 60 s pass; check once more and, if
    it settled, require exact convergence.  Returns whether it
    settled. *)
val settle : harness -> bool

(** Highest Raft index any group's checker saw committed. *)
val max_committed : harness -> int

(** Client writes acknowledged committed. *)
val client_commits : harness -> int

(** Every group's violations, group by group. *)
val violations : harness -> Invariants.violation list

(** {2 The chaos runner} *)

type report = {
  r_seed : int;
  r_steps : int;
  r_shards : int;  (** Raft groups multiplexed on the ring (1 = classic) *)
  r_quorum : Raft.Quorum.mode;
  r_lease : bool;  (** leader-lease fast path enabled? *)
  r_max_clock_drift : float;
      (** drift margin the Raft layer was told to absorb *)
  r_faults : string list;
  r_injections : (Schedule.fault_kind * int) list;
  r_total_injections : int;
  r_committed : int;  (** highest Raft index the checker saw committed *)
  r_workload_committed : int;  (** client writes acknowledged committed *)
  r_lin_reads_ok : int;  (** linearizable register reads served *)
  r_lin_violations : int;  (** linearizable reads that saw stale values *)
  r_stale_eventual : int;  (** eventual reads that observed staleness *)
  r_violations : Invariants.violation list;
  r_converged : bool;
      (** settled within the timeout after the final heal, and checked for
          exact convergence; a run that did not fails its gate *)
  r_trace_digest : int32;  (** digest of the full trace — seed-replay equality *)
  r_fault_dropped : int;
  r_duplicated : int;
  r_reordered : int;
  r_metrics : Obs.Metrics.snapshot;  (** end-of-run deployment-wide metrics *)
}

(** The canonical chaos topology: three regions, each a MySQL server
    plus two logtailers. *)
val chaos_members : unit -> Myraft.Cluster.member_spec list

val quorum_name : Raft.Quorum.mode -> string

(** Run a seeded chaos schedule under an open-loop workload plus the
    {!Linreg} linearizable-register read checker, checking every
    group's invariants continuously; then heal everything, {!settle},
    and require exact convergence.  [shards] (default 1, a classic
    cluster) multiplexes that many Raft groups on the chaos ring behind
    the coalescing mux.  [lease] (default true) toggles the leader-lease
    read fast path; [max_clock_drift] (default 0.0) is handed to the
    Raft layer as the clock-drift margin its leases must absorb — run
    the clock-attack families with it at or above the schedule's
    [drift_rate].  [auto_purge] (default false) rotates and purges each
    group's primary binlog every few steps, so peers that fall behind a
    fault find their tail compacted away and must be rescued by an
    engine-checkpoint InstallSnapshot — the purged-log-replication
    stress mode.  [echo] prints the trace as it is recorded (classic
    cluster only: @raise Invalid_argument with [shards > 1]).  On
    violations, dumps them, the trace tail and the repro command to
    stderr. *)
val run :
  ?spec:Schedule.t ->
  ?quorum:Raft.Quorum.mode ->
  ?lease:bool ->
  ?max_clock_drift:float ->
  ?rate_per_s:float ->
  ?echo:bool ->
  ?auto_purge:bool ->
  ?shards:int ->
  seed:int ->
  steps:int ->
  unit ->
  report

val report_summary : report -> string

(** Seed sweep for CI smoke: the gate is "every report converged with
    no violations". *)
val sweep :
  ?spec:Schedule.t ->
  ?quorum:Raft.Quorum.mode ->
  ?lease:bool ->
  ?max_clock_drift:float ->
  ?rate_per_s:float ->
  ?auto_purge:bool ->
  ?shards:int ->
  seeds:int list ->
  steps:int ->
  unit ->
  report list
