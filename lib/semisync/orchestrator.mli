(** The prior setup's external control plane (§1.1): health monitoring
    by pings over the simulated network, dead-primary failover with
    heavy-tailed automation delays, and graceful promotion — the
    operational behaviour Table 2 contrasts with Raft's in-server
    failover. *)

type ctx = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  rng : Sim.Rng.t;
  discovery : Myraft.Service_discovery.t;
  replicaset : string;
  orchestrator_id : string;
  send : dst:string -> Wire.t -> unit;
  servers : unit -> Server.t list;
  ackers : unit -> Acker.t list;
  peers_for : string -> (string * bool) list;
}

type t = {
  ctx : ctx;
  mutable current_primary : string;
  mutable misses : int;
  mutable next_ping : int;
  pending_pings : (int, Sim.Engine.handle) Hashtbl.t;
  mutable in_failover : bool;
  mutable monitoring : bool;
  mutable failovers : int;
  mutable promotions : int;
}

val create : ctx -> initial_primary:string -> t

val current_primary : t -> string

val failovers : t -> int

val promotions : t -> int

val handle_message : t -> src:string -> Wire.t -> unit

val start_monitoring : t -> unit

(** Operator-initiated promotion: quiesce, wait catch-up, switch roles,
    repoint, publish.  [on_done] fires at completion. *)
val graceful_promotion : t -> target:string -> on_done:(unit -> unit) -> (unit, string) result
