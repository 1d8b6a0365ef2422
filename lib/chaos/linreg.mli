(** Register-semantics linearizability checker for the consistency-tiered
    read path.

    A single monotone writer (one write outstanding at a time) appends
    increasing values to one register key while reader sessions issue
    [Linearizable] and [Eventual] reads against random MySQL members.  A
    linearizable read that returns a value older than a write
    acknowledged before the read was issued is a real-time ordering
    violation, reported into {!Invariants} under the ["linearizability"]
    invariant.  Eventual reads are only observed: [ev_stale] counts how
    often they return stale values, which a healthy chaos run should
    show is non-zero — evidence the checker distinguishes the tiers. *)

type stats = {
  mutable writes_acked : int;
  mutable lin_issued : int;
  mutable lin_ok : int;
  mutable lin_rejected : int;  (** rejected or timed out: no safety claim *)
  mutable lin_violations : int;
  mutable ev_issued : int;
  mutable ev_ok : int;
  mutable ev_stale : int;
}

type t

(** Start the writer, two linearizable readers and one eventual reader
    against [backend] from region r1, reporting violations into
    [invariants]. *)
val start :
  backend:Workload.Backend.t ->
  invariants:Invariants.t ->
  unit ->
  t

val stop : t -> unit

val stats : t -> stats

val summary : t -> string
