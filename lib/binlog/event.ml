(* Binlog events.

   The deployment the paper describes runs row-based replication, so a
   transaction's payload is a GTID event, a table map, a rows event
   carrying before/after images, and a commit (XID) event.  Every one of
   them is determined by the transaction's GTID, table, row ops and XID,
   so the log keeps those four fields ([Entry.Transaction]) and derives
   the events' sizes and checksum bytes from them. *)

type row_op =
  | Insert of { key : string; value : string }
  | Update of { key : string; before : string; after : string }
  | Delete of { key : string; before : string }

let row_op_key = function
  | Insert { key; _ } | Update { key; _ } | Delete { key; _ } -> key

let row_op_size = function
  | Insert { key; value } -> 8 + String.length key + String.length value
  | Update { key; before; after } ->
    8 + String.length key + String.length before + String.length after
  | Delete { key; before } -> 8 + String.length key + String.length before

(* Approximate on-disk sizes in bytes: each event is a 19-byte common
   header plus its body, mirroring the real binlog format closely
   enough for bandwidth accounting. *)
let header = 19

let gtid_event_size = header + 42

let table_map_size table = header + 12 + String.length table

let write_rows_size table ops =
  let rows = List.fold_left (fun acc op -> acc + row_op_size op) 0 ops in
  header + 10 + String.length table + rows

let xid_size = header + 8

let transaction_size ~table ~ops =
  gtid_event_size + table_map_size table + write_rows_size table ops + xid_size
