(** Replicaset assembly: a full MyRaft ring (MySQL servers + logtailers)
    on a simulated multi-region network, with service discovery and the
    control operations the experiments use. *)

type member_spec = {
  spec_id : string;
  spec_region : string;
  spec_kind : Raft.Types.member_kind;
  spec_voter : bool;
}

(** A primary-capable MySQL member ([voter:false] makes a learner). *)
val mysql : ?voter:bool -> string -> string -> member_spec

(** A logtailer (witness: voter without a database). *)
val logtailer : string -> string -> member_spec

type node = Mysql_node of Server.t | Tailer_node of Logtailer.t

(** The wire/fault surface a group cluster needs from whoever owns the
    physical network.  Standalone clusters build one over their own
    [Sim.Network]; in multi-Raft mode [Shard.Multi] hands every group a
    transport over the shared mux.  [tr_add_node] must be idempotent —
    many groups register the same physical nodes. *)
type transport = {
  tr_send : src:string -> dst:string -> Wire.t -> unit;
  tr_register : string -> (src:string -> Wire.t -> unit) -> unit;
  tr_add_node : id:string -> region:string -> unit;
  tr_set_down : string -> unit;
  tr_set_up : string -> unit;
  tr_isolate : string -> unit;
  tr_heal : string -> unit;
  tr_set_link_latency : a:string -> b:string -> latency:float -> unit;
}

(** Shared infrastructure for one group of a multi-Raft deployment:
    engine, trace, discovery and trace ring are owned by the embedder
    and common to all groups; [sh_clock_of] returns the physical node's
    clock so every group instance on a node shares its oscillator. *)
type shared = {
  sh_engine : Sim.Engine.t;
  sh_trace : Sim.Trace.t;
  sh_discovery : Service_discovery.t;
  sh_tracebuf : Obs.Tracebuf.t;
  sh_group : int;
  sh_clock_of : string -> Sim.Clock.t option;
  sh_transport : transport;
}

type t

(** With [?shared] the cluster becomes one group of a multi-Raft
    deployment: it owns no engine or network ([seed], [latency] and
    [echo_trace] are ignored) and all wire/fault operations route
    through the shared transport. *)
val create :
  ?seed:int ->
  ?params:Params.t ->
  ?latency:Sim.Latency.t ->
  ?echo_trace:bool ->
  ?shared:shared ->
  replicaset:string ->
  members:member_spec list ->
  unit ->
  t

(** {2 Accessors} *)

val engine : t -> Sim.Engine.t

(** The cluster's own network.  @raise Invalid_argument in shared
    (multi-Raft) mode, where the mux owns the one network. *)
val network : t -> Wire.t Sim.Network.t

val transport : t -> transport

(** Multi-Raft group tag (0 for a standalone cluster). *)
val group : t -> int

val trace : t -> Sim.Trace.t

(** The OpId-correlated trace ring shared by every node in the cluster:
    one transaction's flush / consensus-commit / engine-commit events
    across primary and replicas. *)
val tracebuf : t -> Obs.Tracebuf.t

(** The live metrics registry of one node (MySQL server or logtailer). *)
val metrics_of : t -> string -> Obs.Metrics.t option

(** Cluster-wide view: every node's registry merged (counters sum,
    histograms pool) plus network-derived net.* counters. *)
val metrics_snapshot : t -> Obs.Metrics.snapshot

(** Bump a network's scalar net.* counters (messages, bytes,
    cross-region bytes, drops, duplicates, reorders) into a registry. *)
val add_network_counters : Obs.Metrics.t -> 'msg Sim.Network.t -> unit

val discovery : t -> Service_discovery.t

val replicaset_name : t -> string

val initial_config : t -> Raft.Types.config

val params : t -> Params.t

val member_ids : t -> string list

val node : t -> string -> node option

val server : t -> string -> Server.t option

val tailer : t -> string -> Logtailer.t option

val servers : t -> Server.t list

(** MySQL members only — the nodes with a storage engine, i.e. valid
    client read targets (logtailers have no tables). *)
val mysql_ids : t -> string list

val tailers : t -> Logtailer.t list

val raft_of : t -> string -> Raft.Node.t option

(** The node's binlog (MySQL) or relay log (logtailer) store. *)
val log_of : t -> string -> Binlog.Log_store.t option

(** The node's local clock (chaos fault-injection point); owned by the
    server/logtailer object, so it survives crash/restart cycles. *)
val clock_of : t -> string -> Sim.Clock.t option

val is_crashed : t -> string -> bool

(** The node currently acting as Raft leader, if any. *)
val raft_leader : t -> string option

(** The Raft node of {!raft_leader}. *)
val leader_raft : t -> Raft.Node.t option

(** The MySQL server currently serving as writable primary, if any. *)
val primary : t -> Server.t option

(** {2 Runtime membership} *)

(** Create and wire a brand-new node ("allocate and prepare a new
    member", §2.2); the caller then issues AddMember on the leader. *)
val add_server : t -> member_spec -> unit

(** {2 Clients} *)

val register_client :
  t -> id:string -> region:string -> handler:(src:string -> Wire.t -> unit) -> unit

val send_from_client : t -> client:string -> dst:string -> Wire.t -> unit

val set_link_latency : t -> a:string -> b:string -> latency:float -> unit

(** {2 Time control} *)

val run_for : t -> float -> unit

val now : t -> float

(** Advance time in [step] chunks until [pred] holds or [timeout]
    elapses; returns whether it held. *)
val run_until : t -> ?step:float -> timeout:float -> (unit -> bool) -> bool

(** Deterministically elect [leader_id] and wait for its MySQL side to
    finish promotion.  Raises on failure. *)
val bootstrap : t -> leader_id:string -> unit

(** {2 Fault injection / control} *)

val crash : t -> string -> unit

val restart : t -> string -> unit

val isolate : t -> string -> unit

val heal : t -> string -> unit

(** Ask the current leader for a graceful transfer (§2.2). *)
val transfer_leadership : t -> target:string -> (unit, string) result

val describe : t -> string

(** {2 Canonical topologies} *)

(** Three MySQL voters in one region. *)
val small_members : unit -> member_spec list

(** One region: MySQL + two logtailers (the minimal FlexiRaft data
    quorum) + one more MySQL. *)
val single_region_members : unit -> member_spec list

(** The §6.1 evaluation topology: a primary with two in-region
    logtailers, five follower regions with two logtailers each, and two
    learners. *)
val paper_members : unit -> member_spec list
