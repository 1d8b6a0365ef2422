(** Prior-setup replicaset assembly: MySQL servers + semi-sync ackers on
    the simulated network with an out-of-band orchestrator.  Mirrors
    [Myraft.Cluster]'s surface so the §6 A/B experiments drive both
    stacks identically. *)

type node = Mysql_node of Server.t | Acker_node of Acker.t

type t

val create :
  ?seed:int ->
  ?costs:Myraft.Params.t ->
  ?latency:Sim.Latency.t ->
  ?echo_trace:bool ->
  replicaset:string ->
  members:Myraft.Cluster.member_spec list ->
  unit ->
  t

val engine : t -> Sim.Engine.t

val network : t -> Wire.t Sim.Network.t

val trace : t -> Sim.Trace.t

val discovery : t -> Myraft.Service_discovery.t

val replicaset_name : t -> string

val member_ids : t -> string list

val orchestrator : t -> Orchestrator.t

val server : t -> string -> Server.t option

val acker : t -> string -> Acker.t option

val servers : t -> Server.t list

(** MySQL members only — valid client read targets (ackers hold no
    tables). *)
val mysql_ids : t -> string list

val ackers : t -> Acker.t list

val primary : t -> Server.t option

(** Shipping peers (id, is_acker) a given primary serves. *)
val peers_for : t -> string -> (string * bool) list

val run_for : t -> float -> unit

val now : t -> float

val run_until : t -> ?step:float -> timeout:float -> (unit -> bool) -> bool

(** Start [leader_id] as primary, repoint everyone, publish discovery,
    begin health monitoring. *)
val bootstrap : t -> leader_id:string -> unit

val crash : t -> string -> unit

val restart : t -> string -> unit

val register_client :
  t -> id:string -> region:string -> handler:(src:string -> Wire.t -> unit) -> unit

val send_from_client : t -> client:string -> dst:string -> Wire.t -> unit

val set_link_latency : t -> a:string -> b:string -> latency:float -> unit

(** A write-availability probe identical in shape to MyRaft's. *)
val start_probe :
  ?region:string ->
  ?probe_interval:float ->
  ?write_timeout:float ->
  ?client_latency:float ->
  t ->
  client_id:string ->
  Sim.Probe.t

val describe : t -> string
