(** The consistency-tiered read service: one per server, generic over an
    {!ops} record so the same tiering logic runs on leaders, followers
    and learners.  See {!Level} for what each tier promises. *)

(** What a read answers.  {!Myraft.Wire.read_outcome} and
    {!Workload.Backend.read_outcome} re-export this type, so an outcome
    travels from the service to the client as it was built. *)
type outcome =
  | Read_value of string option
  | Read_rejected of { reason : string; retry_after : float option }
      (** [retry_after] is a client backoff hint (virtual µs) *)

(** Closures over the embedding server; all must tolerate being called
    at any point of the server's lifecycle. *)
type ops = {
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> Sim.Engine.handle;
      (** arms the deadline of a read that parks; cancelled once the read
          settles *)
  read_index : ((int, string) result -> unit) -> unit;
      (** resolve the linearizable read index from any role (leader
          locally, follower/learner by forwarding) *)
  lease_read_index : unit -> int;
      (** the read index the leader lease vouches for, or [-1] when there
          is no valid lease (see {!Raft.Node.lease_read_index}).  A read
          with an index answers without a round and counts as
          lease-served; at [-1] it goes through [read_index] *)
  staleness_anchor : unit -> float * int;  (** see {!Raft.Node.staleness_anchor} *)
  applied_index : unit -> int;
      (** highest log index the local engine has applied through *)
  wait_applied : int -> (unit -> unit) -> unit;
      (** call back once [applied_index] reaches the argument; never
          fires early and may never fire — the service deadline guards *)
  wait_gtid : Binlog.Gtid.t -> timeout:float -> (bool -> unit) -> unit;
      (** call back with whether the GTID committed locally in time *)
  get : table:string -> key:string -> string option;
}

type params = {
  read_timeout : float;  (** service-level deadline per read *)
  retry_hint : float;  (** suggested client backoff on rejection *)
}

val default_params : params

type t

(** [metrics] receives the read.* counters: served and rejected per
    tier, lease- and quorum-served linearizable reads, timeouts. *)
val create : ?params:params -> metrics:Obs.Metrics.t -> ops:ops -> unit -> t

(** [serve t ~level ~table ~key reply ctx] serves one read at the given
    consistency level and calls [reply ctx outcome] exactly once.

    A read that needs no wait is answered before [serve] returns: a
    linearizable read under a valid lease whose engine has applied
    through the lease index, an eventual read, a read-your-writes read
    without a token, and a bounded read (served or refused).  Such a
    read allocates only its outcome.  Any other read parks as one record
    holding [reply] and [ctx] until a read-index round, an apply or a
    GTID commit settles it, or its [read_timeout] deadline rejects it.
    Passing [reply] (built once by the caller) and [ctx] (the request)
    instead of a closure is what keeps the dispatch path closure-free. *)
val serve :
  t ->
  level:Level.t ->
  table:string ->
  key:string ->
  ('c -> outcome -> unit) ->
  'c ->
  unit
