(** Distributed lock service for control-plane tools (enable-raft holds
    a per-replicaset lock so no other automation races it, §5.2). *)

type t

val create : Sim.Engine.t -> t

val holder : t -> name:string -> string option

(** Attempt the lock; [k] receives the outcome after the acquisition
    round trip.  Re-entrant for the same owner. *)
val acquire : t -> name:string -> owner:string -> ((unit, string) result -> unit) -> unit

val release : t -> name:string -> owner:string -> (unit, string) result
