(** Backup and restore (§3, §5.1): a consistent snapshot of a member's
    consensus-committed binlog prefix.  Restore replays it into a fresh
    node (engine rebuilt by applying row events) — also how replacement
    members are seeded when the ring's history has been purged (the
    snapshot-install role Raft delegates to the backup service). *)

type t

(** Snapshot a live member's committed prefix, verifying checksums.
    Fails on crashed sources, corrupt entries, or locally purged
    history. *)
val take : Myraft.Server.t -> (t, string) result

val position : t -> Binlog.Opid.t

val entry_count : t -> int

val gtid_executed : t -> Binlog.Gtid_set.t

(** Append the entries to the server's log and commit each transaction
    in its engine, in order. *)
val replay : Myraft.Server.t -> Binlog.Entry.t list -> unit

(** Replay into a fresh (empty) MySQL server: seed log + engine. *)
val restore_into_server : t -> Myraft.Server.t -> (unit, string) result

(** Seed a fresh logtailer's log. *)
val restore_into_tailer : t -> Myraft.Logtailer.t -> (unit, string) result

(** §5.1-style consistency check of the backup against a live member. *)
val verify_against : t -> Myraft.Server.t -> (unit, string) result
