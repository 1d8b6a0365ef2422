(** Tunable costs of the simulated MySQL server, in microseconds: the
    CPU/storage work that is not network latency.  Defaults are
    calibrated so the sysbench experiment of §6.1 lands in the paper's
    regime (sub-millisecond commits under in-region quorums). *)

type t = {
  prepare_us : float;  (** engine prepare incl. locks + WAL markers *)
  flush_base_us : float;  (** binlog group flush: fixed fsync cost *)
  flush_per_txn_us : float;  (** marginal cost per txn in a flush group *)
  raft_stamp_us : float;  (** MyRaft extra: checksum + compress + OpId (§3.4) *)
  commit_base_us : float;  (** engine group commit: fixed cost *)
  commit_per_txn_us : float;
  apply_per_txn_us : float;  (** applier executing an RBR payload *)
  applier_workers : int;  (** parallel apply worker lanes (1 = serial) *)
  max_binlog_bytes : int;  (** rotation budget consulted by the janitor *)
  raft : Raft.Node.params;
}

val default : t

(** {2 Fixed costs}

    Costs no experiment varies, kept as constants beside the fields. *)

(** Max transactions merged into one engine commit cycle: groups
    released by consensus while a cycle runs share the next cycle's
    [commit_base_us] up to this many transactions. *)
val group_commit_max : int

(** Applier thread scheduling delay. *)
val applier_wakeup_us : float

(** Primary-side writeset history capacity. *)
val writeset_history_size : int

(** §3.3 promotion step costs... *)
val rewire_logs_us : float

val enable_writes_us : float

val publish_discovery_us : float

val catchup_check_interval_us : float

(** ...and demotion step costs. *)
val abort_in_flight_us : float

val disable_writes_us : float

val applier_start_us : float
