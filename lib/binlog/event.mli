(** Binlog events (row-based replication): a transaction's payload is a
    GTID event, table map + rows events, and a commit (XID) event.
    Rotate events are replicated through Raft so file boundaries stay
    identical across the replica set (§A.1). *)

type row_op =
  | Insert of { key : string; value : string }
  | Update of { key : string; before : string; after : string }
  | Delete of { key : string; before : string }

type body =
  | Format_description
  | Previous_gtids of Gtid_set.t
  | Gtid_event of Gtid.t
  | Table_map of { table : string }
  | Write_rows of { table : string; ops : row_op list }
  | Query of { sql : string }
  | Xid of { xid : int }
  | Rotate of { next_file : string }

type t

val make : body -> t

val body : t -> body

(** The row key a row op touches (the writeset member it contributes). *)
val row_op_key : row_op -> string

val row_op_size : row_op -> int

(** Approximate on-disk size in bytes (19-byte common header + body),
    close enough to the real binlog format for bandwidth accounting. *)
val size : t -> int

val describe : t -> string

(** A memo of [Table_map] events, one per table.  A primary builds each
    transaction's table map through it, so the transactions its log
    retains share one event per table instead of holding one each. *)
type table_maps

val table_maps : unit -> table_maps

(** The [Table_map] event of [table], made at its first use. *)
val table_map : table_maps -> string -> t
