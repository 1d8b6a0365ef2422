(** The consistency-tiered read service: one per server, generic over an
    {!ops} record so the same tiering logic runs on leaders, followers
    and learners.  See {!Level} for what each tier promises. *)

type outcome =
  | Value of string option
  | Rejected of { reason : string; retry_after : float option }
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
  lease_valid : unit -> bool;
      (** metric attribution: lease fast path vs confirmation round *)
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

(** [metrics] receives the read.* counters and per-tier latency
    histograms. *)
val create : ?params:params -> metrics:Obs.Metrics.t -> ops:ops -> unit -> t

(** Serve one read at the given consistency level; [k] fires exactly
    once, possibly synchronously. *)
val serve :
  t ->
  level:Level.t ->
  table:string ->
  key:string ->
  (outcome -> unit) ->
  unit
