(** Self-healing fleet driver over a {!Myraft.Cluster}.

    {!apply_target} executes a {!Planner} plan to an arbitrary target
    membership: provisions fresh nodes for add-learner steps, waits for
    catch-up before promotions (snapshot-fed when the join point is
    behind the purge boundary), and transfers leadership out of members
    the plan displaces, re-planning from the live config after every
    committed step.

    {!start} runs the reconcile loop: liveness telemetry against the
    current config declares a member dead after [dead_after] down, then
    a replacement is walked through provision -> join-as-learner ->
    catch-up -> promote -> evict, one idempotent action per tick and
    never while another change is pending.  Metrics are exported under
    [healer.*]. *)

(** The newest installed config across live nodes — the fleet's
    effective membership even while a leader election is in flight.
    [None] when every node is down. *)
val newest_config : Myraft.Cluster.t -> Raft.Types.config option

(** Start a node for [m] (same id, region and kind) outside the ring,
    unless the cluster already has a node with that id.  An add-learner
    step does this itself; call it first to seed the node before it
    joins. *)
val provision : Myraft.Cluster.t -> Raft.Types.member -> unit

(** Drive the cluster's membership to [target].  Returns the number of
    committed steps (0 = already there); each step must commit within
    30 s of virtual time.  [on_step] fires after each committed step —
    chaos harnesses hang invariant checks on it. *)
val apply_target :
  ?on_step:(Planner.step -> unit) ->
  Myraft.Cluster.t ->
  target:Raft.Types.config ->
  (int, string) result

type replacement = {
  r_corpse : string;
  r_replacement : string;
  r_duration_us : float;
}

type t

(** Start the reconcile loop on the cluster's engine.  A corpse's
    replacement lives in the corpse's region. *)
val start : ?check_interval:float -> ?dead_after:float -> Myraft.Cluster.t -> t

val stop : t -> unit

(** Completed replacements, oldest first. *)
val replacements : t -> replacement list

(** The (corpse, replacement) pair currently being driven, if any. *)
val in_flight : t -> (string * string) option

val metrics_snapshot : t -> Obs.Metrics.snapshot
