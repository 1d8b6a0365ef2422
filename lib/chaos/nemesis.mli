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

(** Outstanding (un-healed) faults. *)
val active : t -> int

val injections : t -> (Schedule.fault_kind * int) list

(** {2 Adapters for a full MyRaft cluster} *)

val ops_of_cluster : Myraft.Cluster.t -> ops

val probes_of_cluster : Myraft.Cluster.t -> Invariants.probe list

(** {2 The full-cluster chaos runner} *)

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
  r_trace_digest : int32;  (** digest of the full trace — seed-replay equality *)
  r_fault_dropped : int;
  r_duplicated : int;
  r_reordered : int;
  r_metrics : Obs.Metrics.snapshot;  (** end-of-run cluster-wide metrics *)
}

(** The canonical chaos topology: three regions, each a MySQL server
    plus two logtailers. *)
val chaos_members : unit -> Myraft.Cluster.member_spec list

val quorum_name : Raft.Quorum.mode -> string

(** Run a seeded chaos schedule against a full MyRaft cluster under an
    open-loop workload plus the {!Linreg} linearizable-register read
    checker, checking invariants continuously; then heal everything, let
    the ring settle, and require exact convergence.  [lease] (default
    true) toggles the leader-lease read fast path; [max_clock_drift]
    (default 0.0) is handed to the Raft layer as the clock-drift margin
    its leases must absorb — run the clock-attack families with it at or
    above the schedule's [drift_rate].  [auto_purge] (default false)
    rotates and purges the primary's binlog every few steps, so peers
    that fall behind a fault find their tail compacted away and must be
    rescued by an engine-checkpoint InstallSnapshot — the
    purged-log-replication stress mode.  On violations, dumps the trace
    tail and the repro command to stderr. *)
val run :
  ?spec:Schedule.t ->
  ?quorum:Raft.Quorum.mode ->
  ?lease:bool ->
  ?max_clock_drift:float ->
  ?rate_per_s:float ->
  ?echo:bool ->
  ?auto_purge:bool ->
  seed:int ->
  steps:int ->
  unit ->
  report

val report_summary : report -> string

(** {2 Multi-Raft (sharded) chaos} *)

(** The sharded counterpart of {!run}: the same fault schedule against
    [shards] Raft groups multiplexed on the chaos ring behind the
    coalescing mux, with routed workload traffic and one invariant
    checker per group — safety holds per consensus group, and every
    group must reconverge after the final heal. *)
val run_sharded :
  ?spec:Schedule.t ->
  ?quorum:Raft.Quorum.mode ->
  ?lease:bool ->
  ?max_clock_drift:float ->
  ?rate_per_s:float ->
  ?auto_purge:bool ->
  shards:int ->
  seed:int ->
  steps:int ->
  unit ->
  report

(** Seed sweep for CI smoke: the gate is "no report has violations".
    [shards > 1] runs every seed via {!run_sharded}. *)
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
