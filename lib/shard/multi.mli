(** Multi-Raft deployment: M independent consensus groups — each a full
    [Myraft.Cluster] in shared mode — multiplexed on one set of physical
    nodes, with all traffic coalesced through one {!Mux}, leaders spread
    across regions via [Control.Rebalance], and a routed
    [Workload.Backend] front door. *)

type t

(** [members] is the {e physical} topology; every group instantiates a
    server/logtailer on each member.  [window] is the mux coalescing
    window (default scales with [groups], capped well under the
    in-region one-way latency).  Leader heartbeat suppression
    ([Raft.Node.params.hb_suppress_limit]) is set to 5 when
    [groups > 1], else 0 — a lone group has no carrier to piggyback
    on. *)
val create :
  ?seed:int ->
  ?params:Myraft.Params.t ->
  ?latency:Sim.Latency.t ->
  ?window:float ->
  ?members:Myraft.Cluster.member_spec list ->
  groups:int ->
  unit ->
  t

(** {2 Accessors} *)

val groups : t -> int

(** Group [g]'s cluster.  @raise Invalid_argument on an unknown group. *)
val cluster : t -> int -> Myraft.Cluster.t

val clusters : t -> Myraft.Cluster.t list

val engine : t -> Sim.Engine.t

val mux : t -> Mux.t

val router : t -> Router.t

val discovery : t -> Myraft.Service_discovery.t

val member_ids : t -> string list

val mysql_ids : t -> string list

val region_of : t -> string -> string option

(** The physical node's oscillator, shared by its instance of every
    group (chaos clock faults hit them all alike). *)
val clock_of : t -> string -> Sim.Clock.t option

val replicaset_of_group : int -> string

(** {2 Time control} *)

val run_for : t -> float -> unit

val now : t -> float

val run_until : t -> ?step:float -> timeout:float -> (unit -> bool) -> bool

(** {2 Leader placement} *)

(** Elect every group's planned leader (spread across regions, then
    nodes) and wait until each finished promotion and published itself.
    Raises on failure. *)
val bootstrap : t -> unit

(** Re-spread leaders with graceful transfers (after faults moved them);
    transfers settle asynchronously in simulation time. *)
val rebalance_leaders : t -> Control.Rebalance.plan * (int * string) list

(** (group, current leader) for every group. *)
val leader_placement : t -> (int * string option) list

(** {2 Physical fault injection}

    Crash granularity is the process: one mysqld hosts its instance of
    every group, so these apply to all groups of a node at once. *)

val crash_node : t -> string -> unit

(** Restart all group instances and re-install their heartbeat
    suppression hooks (restart rebuilds each raft). *)
val restart_node : t -> string -> unit

val isolate_node : t -> string -> unit

val heal_node : t -> string -> unit

val is_crashed : t -> string -> bool

(** {2 Clients and observability} *)

(** The routed front door: hashes each (table, key) through the
    {!Router}, sends to the owning group's leader (cached, invalidated
    both on request rejection and eagerly when a config change drops
    the cached node from the group's membership), and demultiplexes
    replies. *)
val backend : t -> Workload.Backend.t

(** Deployment-wide merged snapshot: all groups' registries plus
    shard.mux.* / net.* rows and shard-level placement gauges. *)
val metrics_snapshot : t -> Obs.Metrics.snapshot

val describe : t -> string
