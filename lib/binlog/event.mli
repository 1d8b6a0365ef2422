(** Binlog events (row-based replication).  A transaction's binlog
    payload is four events: a GTID event, a table map, a rows event
    carrying the row images, and a commit (XID) event.  The log holds a
    transaction as one record of the fields those events carry
    ({!Entry.payload}); this module keeps the row operations and the
    events' on-disk sizes. *)

type row_op =
  | Insert of { key : string; value : string }
  | Update of { key : string; before : string; after : string }
  | Delete of { key : string; before : string }

(** The row key a row op touches (the writeset member it contributes). *)
val row_op_key : row_op -> string

val row_op_size : row_op -> int

(** Approximate on-disk size in bytes of a transaction's four events on
    [table] (each a 19-byte common header plus its body), close enough
    to the real binlog format for bandwidth accounting. *)
val transaction_size : table:string -> ops:row_op list -> int
