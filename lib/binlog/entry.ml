(* A Raft log entry as stored in the binlog.

   One entry = one replicated unit: a whole transaction (its GTID, table,
   row ops and XID, from which its four binlog events follow), a
   leader-assertion no-op, a membership change, or a
   replicated rotate marker.  Raft stamps the OpId; the checksum is
   computed at that moment (§3.4) so corruption can be detected when the
   log abstraction later re-reads the entry from disk. *)

(* A transaction is one record, not a list of its events: the GTID
   event repeats [gtid], the table map and rows event share [table], and
   the XID event is [xid], so the retained log owns no list cell and no
   event block per transaction. *)
type payload =
  | Transaction of { gtid : Gtid.t; table : string; ops : Event.row_op list; xid : int }
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
  | Transaction { table; ops; _ } -> Event.transaction_size ~table ~ops
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

(* A transaction feeds its four events in log order, each behind its
   event tag: the GTID event (3), the table map (4), the rows event (5,
   its ops then a 0) and the XID (7, its two 32-bit halves as the bytes
   an [int64] field fed), then a 0 closing the event list. *)
let payload_checksum payload =
  let open Checksum in
  let st =
    match payload with
    | Transaction { gtid; table; ops; xid } ->
      let source = Gtid.source gtid and gno = Gtid.gno gtid in
      let st = feed_int (feed_str (feed_int init 1) source) gno in
      let st = feed_int (feed_str (feed_int st 3) source) gno in
      let st = feed_str (feed_int st 4) table in
      let st = List.fold_left feed_row_op (feed_str (feed_int st 5) table) ops in
      let st = feed_int st 0 in
      let st = feed_int (feed_int st 7) (xid land 0xFFFFFFFF) in
      feed_int (feed_int st ((xid asr 32) land 0xFFFFFFFF)) 0
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
   CRC can catch.  A transaction's XID loses a bit, a field no replica
   applies, so the rot changes what [verify] sees and nothing a replica
   would apply.  A no-op has no body bytes and falls back to the header
   flavour. *)
let corrupt t flavor =
  let flip_header () = { t with checksum = t.checksum lxor 0x00010000 } in
  match flavor with
  | Header -> flip_header ()
  | Body ->
    let mangled =
      match t.payload with
      | Transaction txn -> Some (Transaction { txn with xid = txn.xid lxor 1 })
      | Noop -> None
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
    | Transaction { gtid; _ } -> Printf.sprintf "txn %s (4 events)" (Gtid.to_string gtid)
    | Noop -> "noop"
    | Config_change { description; _ } -> "config: " ^ description
    | Rotate_marker { next_file } -> "rotate -> " ^ next_file
  in
  Printf.sprintf "[%s] %s" (Opid.to_string t.opid) body
