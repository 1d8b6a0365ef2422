(* A Raft log entry as stored in the binlog.

   One entry = one replicated unit: a whole transaction (its GTID plus its
   row events), a leader-assertion no-op, a membership change, or a
   replicated rotate marker.  Raft stamps the OpId; the checksum is
   computed at that moment (§3.4) so corruption can be detected when the
   log abstraction later re-reads the entry from disk. *)

type payload =
  | Transaction of { gtid : Gtid.t; events : Event.t list }
  | Noop
  | Config_change of { description : string; encoded : string }
  | Rotate_marker of { next_file : string }

(* WRITESET dependency interval stamped into the Gtid_event header at
   flush time (§ Parallel apply): a replica may execute this transaction
   concurrently with anything whose index is > [last_committed].  Kept
   outside the payload checksum — in the real binlog these live in the
   42-byte Gtid_event whose size we already account for, and they are
   header metadata stamped by the primary, not client payload.  The
   interval's upper end, MySQL's sequence_number, is always the entry's
   own index, so it is read from the OpId rather than stored. *)
type deps = { last_committed : int; sequence_number : int }

(* Flat: the CRC is kept as an unsigned 32-bit int ([Int32.of_int] of it
   is the stamped checksum) and the dependency interval as one int field,
   [last_committed = -1] until stamped, so a retained entry owns no
   [int32] box, no option and no deps record. *)
type t = {
  opid : Opid.t;
  payload : payload;
  checksum : int;
  size : int;
  mutable last_committed : int;
}

let payload_size payload =
  match payload with
  | Transaction { events; _ } ->
    List.fold_left (fun acc e -> acc + Event.size e) 0 events
  | Noop -> 31
  | Config_change { encoded; _ } -> 40 + String.length encoded
  | Rotate_marker { next_file } -> 27 + String.length next_file

(* The checksum streams over the payload's fields in a fixed order: every
   constructor contributes a distinct non-zero tag, every string its length
   before its bytes, and every list a 0 tag after its last element, so two
   different payloads never feed the same byte stream.  Folding the fields
   directly allocates nothing — no wire form is ever materialized. *)
let feed_str st s = Checksum.feed_string (Checksum.feed_int st (String.length s)) s

let feed_row_op st = function
  | Event.Insert { key; value } -> feed_str (feed_str (Checksum.feed_int st 1) key) value
  | Event.Update { key; before; after } ->
    feed_str (feed_str (feed_str (Checksum.feed_int st 2) key) before) after
  | Event.Delete { key; before } -> feed_str (feed_str (Checksum.feed_int st 3) key) before

let feed_event st e =
  let open Checksum in
  match Event.body e with
  | Event.Format_description -> feed_int st 1
  | Event.Previous_gtids set -> feed_str (feed_int st 2) (Gtid_set.to_string set)
  | Event.Gtid_event g -> feed_int (feed_str (feed_int st 3) (Gtid.source g)) (Gtid.gno g)
  | Event.Table_map { table } -> feed_str (feed_int st 4) table
  | Event.Write_rows { table; ops } ->
    feed_int (List.fold_left feed_row_op (feed_str (feed_int st 5) table) ops) 0
  | Event.Query { sql } -> feed_str (feed_int st 6) sql
  | Event.Xid { xid } ->
    (* the two 32-bit halves of the xid as a 64-bit integer, each fed
       as an int: the bytes the [int64] field fed *)
    feed_int (feed_int (feed_int st 7) (xid land 0xFFFFFFFF)) ((xid asr 32) land 0xFFFFFFFF)
  | Event.Rotate { next_file } -> feed_str (feed_int st 8) next_file

let payload_checksum payload =
  let open Checksum in
  let st =
    match payload with
    | Transaction { gtid; events } ->
      let st = feed_int (feed_str (feed_int init 1) (Gtid.source gtid)) (Gtid.gno gtid) in
      feed_int (List.fold_left feed_event st events) 0
    | Noop -> feed_int init 2
    | Config_change { description; encoded } ->
      feed_str (feed_str (feed_int init 3) description) encoded
    | Rotate_marker { next_file } -> feed_str (feed_int init 4) next_file
  in
  finalize_int st

let make ~opid payload =
  {
    opid;
    payload;
    checksum = payload_checksum payload;
    size = payload_size payload + 16 (* opid + checksum framing *);
    last_committed = -1;
  }

let opid t = t.opid

let term t = Opid.term t.opid

let index t = Opid.index t.opid

let payload t = t.payload

let size t = t.size

let checksum t = Int32.of_int t.checksum

let verify t = payload_checksum t.payload = t.checksum

let deps t =
  if t.last_committed < 0 then None
  else Some { last_committed = t.last_committed; sequence_number = Opid.index t.opid }

let last_committed t = t.last_committed

let set_deps t ~last_committed =
  if last_committed < 0 then invalid_arg "Entry.set_deps: negative last_committed";
  t.last_committed <- last_committed

let gtid t = match t.payload with Transaction { gtid; _ } -> Some gtid | _ -> None

let is_transaction t = match t.payload with Transaction _ -> true | _ -> false

(* Re-stamp an existing payload with a new OpId: used when a leader
   replicates a client transaction whose payload was built before Raft
   assigned the slot. *)
let with_opid t ~opid = { t with opid }

(* ----- fault injection (chaos) ----- *)

type corruption = Header | Body

(* A bit-rotted copy of [t], as re-read from a disk whose platter flipped
   bits under the entry.  [Header] flips a bit inside the stored checksum
   field; [Body] mutates the payload while keeping the now-stale checksum.
   Either way [verify] must fail on the result.  The mutated payload stays
   structurally well-formed: the point is silent content damage only the
   CRC can catch.  Entries whose payload has no distinguishable body
   bytes fall back to the header flavour. *)
let corrupt t flavor =
  let flip_header () = { t with checksum = t.checksum lxor 0x00010000 } in
  match flavor with
  | Header -> flip_header ()
  | Body ->
    let mangled =
      match t.payload with
      | Transaction { gtid; events = _ :: rest } ->
        (* an event vanishes: acked row changes silently gone *)
        Some (Transaction { gtid; events = rest })
      | Transaction { events = []; _ } | Noop -> None
      | Config_change c ->
        Some (Config_change { c with description = c.description ^ "\x00" })
      | Rotate_marker { next_file } -> Some (Rotate_marker { next_file = next_file ^ "\x00" })
    in
    (match mangled with
    (* the stored payload changed under a stale checksum: [verify] fails *)
    | Some payload -> { t with payload }
    | None -> flip_header ())

let describe t =
  let body =
    match t.payload with
    | Transaction { gtid; events } ->
      Printf.sprintf "txn %s (%d events)" (Gtid.to_string gtid) (List.length events)
    | Noop -> "noop"
    | Config_change { description; _ } -> "config: " ^ description
    | Rotate_marker { next_file } -> "rotate -> " ^ next_file
  in
  Printf.sprintf "[%s] %s" (Opid.to_string t.opid) body
