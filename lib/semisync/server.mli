(** A MySQL server under the prior setup (§1.1, §6): semi-sync
    replication to acker logtailers, async replication to replicas, and
    no internal failure handling — the {!Orchestrator} changes roles
    from outside.  The commit pipeline is MyRaft's, but the wait stage
    is released by the first semi-sync acker acknowledgement. *)

type role = Primary | Replica

type t

val create :
  engine:Sim.Engine.t ->
  id:string ->
  region:string ->
  replicaset:string ->
  send:(dst:string -> Wire.t -> unit) ->
  discovery:Myraft.Service_discovery.t ->
  costs:Myraft.Params.t ->
  trace:Sim.Trace.t ->
  unit ->
  t

val id : t -> string

val region : t -> string

val role : t -> role

val writes_enabled : t -> bool

val is_crashed : t -> bool

val storage : t -> Storage.Engine.t

val log : t -> Binlog.Log_store.t

(** Binlog sequence number (log index). *)
val last_seq : t -> int

(** Highest sequence applied to the engine (replica side). *)
val applied_seq : t -> int

val pipeline_in_flight : t -> int

(** (last received, last applied): the positions the orchestrator
    queries to pick a failover target. *)
val position : t -> int * int

(** [reply] receives [Some gtid] on commit, [None] on rejection. *)
val submit_write :
  t ->
  table:string ->
  ops:Binlog.Event.row_op list ->
  reply:(Binlog.Gtid.t option -> unit) ->
  unit

(** Serve a read at the given consistency level under the prior setup's
    (weaker) guarantees: no ReadIndex, no leases, no staleness
    propagation.  [Linearizable] and [Bounded_staleness] are honoured on
    the (believed) primary only; the continuation receives the value or
    a rejection reason. *)
val serve_read :
  t ->
  level:Read.Level.t ->
  table:string ->
  key:string ->
  ((string option, string) result -> unit) ->
  unit

(** {2 Role changes (driven by the Orchestrator)} *)

val disable_writes : t -> unit

(** Become the primary serving [peers] (id, is_acker). *)
val promote : t -> peers:(string * bool) list -> unit

(** Promote and start the shipping loop. *)
val start_as_primary : t -> peers:(string * bool) list -> unit

val demote : t -> new_upstream:string option -> unit

(** CHANGE MASTER TO equivalent. *)
val repoint : t -> new_upstream:string -> unit

(** {2 Lifecycle} *)

val crash : t -> unit

(** Restart as a replica of [upstream]; the binlog tail beyond the
    engine recovery point is discarded (rejoin repair). *)
val restart : t -> upstream:string option -> unit

val handle_message : t -> src:string -> Wire.t -> unit
