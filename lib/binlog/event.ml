(* Binlog events.

   The deployment the paper describes runs row-based replication, so a
   transaction's payload is a GTID event, table map + rows events carrying
   before/after images, and a commit (XID) event.  Rotate events are
   replicated through Raft so log file boundaries stay identical across
   the replica set (§A.1). *)

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

(* An event is its body: a retained log keeps four events per
   transaction, so a one-field wrapper record would cost 2 words each. *)
type t = body

let make body = body

let body t = t

let row_op_key = function
  | Insert { key; _ } | Update { key; _ } | Delete { key; _ } -> key

let row_op_size = function
  | Insert { key; value } -> 8 + String.length key + String.length value
  | Update { key; before; after } ->
    8 + String.length key + String.length before + String.length after
  | Delete { key; before } -> 8 + String.length key + String.length before

(* Approximate on-disk size in bytes: a 19-byte common header plus the
   body, mirroring the real binlog format closely enough for bandwidth
   accounting. *)
let size t =
  let header = 19 in
  let body_size =
    match t with
    | Format_description -> 84
    | Previous_gtids set -> 8 + (16 * List.length (Gtid_set.sources set))
    | Gtid_event _ -> 42
    | Table_map { table } -> 12 + String.length table
    | Write_rows { table; ops } ->
      10 + String.length table + List.fold_left (fun acc op -> acc + row_op_size op) 0 ops
    | Query { sql } -> 13 + String.length sql
    | Xid _ -> 8
    | Rotate { next_file } -> 8 + String.length next_file
  in
  header + body_size

(* One [Table_map] event per table, made at the table's first write:
   the event holds only the table name, so every transaction on the
   table can share it. *)
type table_maps = (string, t) Hashtbl.t

let table_maps () : table_maps = Hashtbl.create 8

let table_map (maps : table_maps) table =
  match Hashtbl.find maps table with
  | event -> event
  | exception Not_found ->
    let event = Table_map { table } in
    Hashtbl.add maps table event;
    event

let describe t =
  match t with
  | Format_description -> "FORMAT_DESCRIPTION"
  | Previous_gtids set -> "PREVIOUS_GTIDS(" ^ Gtid_set.to_string set ^ ")"
  | Gtid_event g -> "GTID(" ^ Gtid.to_string g ^ ")"
  | Table_map { table } -> "TABLE_MAP(" ^ table ^ ")"
  | Write_rows { table; ops } -> Printf.sprintf "WRITE_ROWS(%s,%d ops)" table (List.length ops)
  | Query { sql } -> "QUERY(" ^ sql ^ ")"
  | Xid { xid } -> Printf.sprintf "XID(%d)" xid
  | Rotate { next_file } -> "ROTATE(" ^ next_file ^ ")"
