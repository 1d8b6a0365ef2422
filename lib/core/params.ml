(* Tunable costs of the simulated MySQL server, in microseconds.

   These model CPU / storage work that is not network latency: engine
   prepare, binlog flush (fsync), engine group commit, applier work, and
   the orchestration steps of promotion/demotion.  Defaults are calibrated
   so the sysbench experiment of §6.1 lands in the paper's regime
   (sub-millisecond commits with in-region quorums). *)

type t = {
  prepare_us : float; (* engine prepare incl. locks + WAL markers *)
  flush_base_us : float; (* binlog group flush: fixed fsync cost *)
  flush_per_txn_us : float; (* marginal cost per txn in a flush group *)
  raft_stamp_us : float; (* MyRaft extra: checksum + compress + OpId (§3.4) *)
  commit_base_us : float; (* engine group commit: fixed cost *)
  commit_per_txn_us : float;
  apply_per_txn_us : float; (* applier executing an RBR payload *)
  applier_workers : int; (* parallel apply worker lanes (1 = serial) *)
  (* Binlog rotation policy *)
  max_binlog_bytes : int;
  raft : Raft.Node.params;
}

let default =
  {
    prepare_us = 40.0;
    flush_base_us = 150.0;
    (* The marginal per-txn CPU costs dropped with the zero-allocation
       pass (flush 4 -> 2.5, stamp 5 -> 1.5, engine commit 4 -> 3): the
       payload is marshalled exactly once at entry construction, the
       flush stage writes those memoized bytes as-is, the OpId-time CRC
       runs unboxed over them instead of re-serializing, and the engine
       commit digest streams field-by-field through the same native-int
       CRC rather than building an intermediate Marshal buffer.  The
       fixed fsync costs (flush_base, commit_base) model hardware and
       are unchanged. *)
    flush_per_txn_us = 2.5;
    raft_stamp_us = 1.5;
    commit_base_us = 100.0;
    commit_per_txn_us = 3.0;
    apply_per_txn_us = 60.0;
    applier_workers = 4;
    max_binlog_bytes = 64 * 1024 * 1024;
    raft = Raft.Node.default_params;
  }

(* Costs no experiment varies: fixed values, not fields. *)

(* Engine-side group-commit widening: when consensus releases several
   flush groups while a commit cycle is running, the next cycle merges
   them and pays [commit_base_us] once, up to this many transactions per
   merged cycle. *)
let group_commit_max = 512

let applier_wakeup_us = 20.0 (* applier thread scheduling delay *)

let writeset_history_size = 10_000 (* primary-side writeset history capacity *)

(* Promotion orchestration step costs (§3.3) *)
let rewire_logs_us = 15_000.0

let enable_writes_us = 5_000.0

let publish_discovery_us = 30_000.0

let catchup_check_interval_us = 5_000.0

(* Demotion orchestration step costs *)
let abort_in_flight_us = 10_000.0

let disable_writes_us = 3_000.0

let applier_start_us = 20_000.0
