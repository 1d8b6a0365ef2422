(** Membership-churn chaos scenarios: directed reconfiguration drills
    run under the {!Invariants} checker (including the logless-reconfig
    oracles — config integrity, quorum overlap, no committed-entry loss
    across a reconfig), each gated on zero violations plus end-of-run
    convergence over the {e final} membership.

    - [evacuation]: drain a whole region through the planner — every r3
      member replaced under a new id in a fresh region r4 while an
      open-loop workload keeps writing;
    - [replace-partitioned]: a region is partitioned away, a voter
      elsewhere is permanently killed, and the self-healing driver must
      restore full redundancy before the partition heals;
    - [storm-churn]: continuous membership changes racing an
      election-storm-heavy nemesis mix;
    - [sharded-churn]: per-group voter/learner churn on a multi-Raft
      deployment, one invariant set per group. *)

type report = {
  c_scenario : string;
  c_seed : int;
  c_reconfigs : int;  (** committed membership changes *)
  c_replacements : (string * string) list;  (** (corpse, replacement) *)
  c_committed : int;  (** highest Raft index seen committed *)
  c_workload_committed : int;  (** client writes acknowledged committed *)
  c_converged : bool;
  c_violations : Invariants.violation list;
  c_metrics : Obs.Metrics.snapshot;
}

val report_summary : report -> string

(** CLI names: evacuation, replace-partitioned, storm-churn,
    sharded-churn. *)
val scenario_names : string list

val run_scenario : name:string -> seed:int -> (report, string) result

(** Every scenario over every seed — the chaos-smoke membership leg. *)
val sweep : seeds:int list -> unit -> report list
