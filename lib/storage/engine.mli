(** Simulated transactional storage engine (the InnoDB/MyRocks stand-in),
    modelling exactly the surface MyRaft's commit path touches: 2PC
    prepare markers, durable commit with GTID + OpId bookkeeping, online
    rollback, row locks, and crash recovery (§3.4, §3.3, §A.2). *)

type t

exception Lock_conflict of { table : string; key : string; holder : Binlog.Gtid.t }

val create : unit -> t

(** {2 Row slots and prepared handles}

    Each table maps a key to one mutable row slot holding the value,
    the last writer and the lock holder.  {!prepare} finds or creates
    each written key's slot once (one hash probe for a present key),
    checks and takes its lock, and returns a {!prepared} handle that
    holds the slots.  {!commit_prepared} and {!rollback_prepared} work
    through the handle alone: no lookup by GTID, no lock table, no row
    record per commit.  A key locked while absent has a slot too, but it
    stays invisible to {!get}, {!row_count}, {!checksum} and
    {!checkpoint} until its insert commits.

    The engine still indexes prepared transactions by GTID, for the
    duplicate check, {!is_prepared}, {!rollback_gtid} and
    {!crash_recover}. *)

type prepared

(** Stage a transaction writing [ops], in order, on [table], acquiring
    row locks.  The handle keeps [table] and [ops] as they are.  Raises
    {!Lock_conflict} (for the first conflicting write, and leaving
    nothing locked) if another prepared transaction holds a touched
    key, and [Invalid_argument] on duplicate gtids. *)
val prepare :
  t -> gtid:Binlog.Gtid.t -> table:string -> ops:Binlog.Event.row_op list -> prepared

(** The handle is still prepared: neither committed nor rolled back (by
    itself, {!rollback_gtid}, {!crash_recover} or {!restore}). *)
val live : prepared -> bool

(** A handle no {!prepare} returned, for a field that holds one only
    later: never {!live}, so {!rollback_prepared} ignores it. *)
val unprepared : prepared

val is_prepared : t -> Binlog.Gtid.t -> bool

val prepared_gtids : t -> Binlog.Gtid.t list

(** Durably apply a prepared transaction, stamping the Raft OpId and
    releasing its locks.  [Invalid_argument] if the handle is no longer
    {!live}. *)
val commit_prepared : t -> prepared -> opid:Binlog.Opid.t -> unit

(** Register a commit listener, fired after every {!commit_prepared}
    once the transaction is fully applied ([gtid_executed] and
    [last_committed_opid] already include it).  This is what replaces
    polling for WAIT_FOR_EXECUTED_GTID_SET-style waits and drives the
    read path's applied-index cursor. *)
val subscribe_commit : t -> (Binlog.Gtid.t -> Binlog.Opid.t -> unit) -> unit

(** Discard a prepared transaction (no-op if no longer {!live}). *)
val rollback_prepared : t -> prepared -> unit

(** Discard the transaction prepared under a GTID (no-op if none). *)
val rollback_gtid : t -> Binlog.Gtid.t -> unit

(** Restart semantics: roll back every prepared transaction; committed
    state survives.  Returns how many were rolled back. *)
val crash_recover : t -> int

val get : t -> table:string -> key:string -> string option

(** Engine-durable executed-GTID set. *)
val gtid_executed : t -> Binlog.Gtid_set.t

val has_committed : t -> Binlog.Gtid.t -> bool

(** "Last transaction committed in engine": the recovery cursor for the
    applier (§3.3 step 5). *)
val last_committed_opid : t -> Binlog.Opid.t

val committed_count : t -> int

val row_count : t -> table:string -> int

(** Content digest for the shadow-testing checksum comparisons between
    leader and followers (§5.1): a CRC-32 over the rows sorted by
    (table, key, value), each string fed as its length then its bytes.
    It depends on the rows' bytes only, never on heap sharing. *)
val checksum : t -> int32

(** Digest of the first [count] commits in commit order ([0l] when
    [count = 0]) — lets a lagging replica's whole history be compared
    against the same-length prefix of a reference replica.  Raises
    [Invalid_argument] when [count] exceeds {!committed_count}. *)
val checksum_at : t -> count:int -> int32

(** The [n]th committed transaction (0-based, commit order). *)
val nth_commit : t -> int -> (Binlog.Gtid.t * Binlog.Opid.t) option

(** A full engine state capture for snapshot shipping: table content,
    executed-GTID set, recovery cursor, and the cumulative commit-digest
    chain (so a restored replica still proves history convergence). *)
type checkpoint

val checkpoint : t -> checkpoint

(** Reseat the engine from a checkpoint: prepared transactions are
    rolled back (as in crash recovery), committed state is replaced
    wholesale; commit listeners survive. *)
val restore : t -> checkpoint -> unit

(** Serialization for the InstallSnapshot wire payload.  Equal
    checkpoints encode to equal bytes, however their strings are shared
    in the heap. *)
val encode_checkpoint : checkpoint -> string

val decode_checkpoint : string -> checkpoint
