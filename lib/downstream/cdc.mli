(** Change data capture (§3, §5.1): a downstream tailer of a member's
    binary log.

    Contract: the stream contains exactly the consensus-committed
    transactions, in OpId order, each GTID once — across failovers,
    truncations and re-attachments.  The tailer never reads past its
    source's Raft commit index (entries below the marker cannot be
    truncated) and de-duplicates on GTID when it resumes. *)

type record = {
  opid : Binlog.Opid.t;
  gtid : Binlog.Gtid.t;
  table : string;
  ops : Binlog.Event.row_op list;
}

type t

(** Attach to [source]; the tailer re-attaches to any live member if the
    source dies. *)
val start : ?from_index:int -> source:string -> Myraft.Cluster.t -> t

val stop : t -> unit

(** Streamed records, oldest first. *)
val records : t -> record list

val record_count : t -> int

val seen_gtids : t -> Binlog.Gtid_set.t

val reattachments : t -> int

val source : t -> string

(** Check strict OpId ordering; returns the record count. *)
val validate : t -> (int, string) result
