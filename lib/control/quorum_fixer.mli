(** Quorum Fixer (§5.3): restores write availability after a "shattered
    quorum" — when a majority of the small FlexiRaft data-commit quorum
    is unhealthy and no leader can win a normal election.

    Procedure: query the ring out-of-band, pick the healthy entity with
    the longest log, forcibly relax the election-quorum expectations
    (ring-wide, covering the logtailer-to-MySQL handoff), trigger the
    election, then reset the expectations after a successful promotion.

    Conservative: refuses to act when a leader exists. *)

type report = {
  chosen : string;
  chosen_last_opid : Binlog.Opid.t;
  healthy_members : int;
  duration_us : float;
}

val run : Myraft.Cluster.t -> (report, string) result
