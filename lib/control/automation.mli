(** Membership automation (§2.2) and the §A.1 binlog janitor.

    "Membership changes are always initiated by automation": allocate
    and prepare a member's replacement, then drive the swap through
    {!Reconfig.Healer.apply_target}, one planned step at a time. *)

type replacement_report = {
  removed : string;
  added : string;
  duration_us : float;
}

(** {2 Binlog rotation/purge janitor (§A.1)} *)

type janitor

(** Watch the primary's current binlog file in a monitoring loop: FLUSH
    BINARY LOGS past the size budget ([Params.max_binlog_bytes]), PURGE
    watermark-cleared files beyond [keep_files]. *)
val start_binlog_janitor : ?interval:float -> ?keep_files:int -> Myraft.Cluster.t -> janitor

val stop_janitor : janitor -> unit

val rotations : janitor -> int

val purges : janitor -> int

(** {2 Member replacement} *)

(** Replace [dead] with a freshly allocated member of the same kind,
    region and voter grade.  The target config (the current one with
    [dead] swapped for [replacement_id]) is handed to
    {!Reconfig.Healer.apply_target}: the newcomer joins as a learner, is
    promoted after catch-up when [dead] was a voter, and only then is
    [dead] demoted and removed, so the voter count never dips below its
    starting value.  Pass [backup] to seed the newcomer when the history
    it needs has been purged from the ring.  Never raises: an unknown
    [dead], an existing [replacement_id], a failed restore or a stuck
    step is an [Error]. *)
val replace_member :
  ?backup:Downstream.Backup.t ->
  Myraft.Cluster.t ->
  dead:string ->
  replacement_id:string ->
  (replacement_report, string) result
