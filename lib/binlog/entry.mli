(** A Raft log entry as stored in the binlog: one replicated unit — a
    whole transaction, a leader-assertion no-op, a membership change, or
    a replicated rotate marker.  The checksum is computed when Raft
    stamps the OpId (§3.4) so later corruption is detectable. *)

(** A transaction is the fields its four binlog events carry (GTID
    event, table map, rows event, XID): {!size}, {!checksum} and
    {!describe} derive the events from them. *)
type payload =
  | Transaction of { gtid : Gtid.t; table : string; ops : Event.row_op list; xid : int }
  | Noop
  | Config_change of { description : string; encoded : string }
  | Rotate_marker of { next_file : string }

(** WRITESET dependency interval stamped by the primary at flush time
    (binlog_transaction_dependency_tracking = WRITESET): a replica may
    execute this transaction concurrently with any entry whose index is
    greater than [last_committed].  Header metadata, not payload: it is
    outside the checksum, like the fields of the real 42-byte
    Gtid_event.  [sequence_number] is always the entry's own index. *)
type deps = { last_committed : int; sequence_number : int }

type t

val make : opid:Opid.t -> payload -> t

val opid : t -> Opid.t

val term : t -> int

val index : t -> int

val payload : t -> payload

(** Approximate wire/disk size in bytes. *)
val size : t -> int

(** CRC-32 over the payload's fields (constructor tags, length-prefixed
    strings, terminated lists), stamped at {!make} time. *)
val checksum : t -> int32

(** Recompute the checksum from the payload and compare. *)
val verify : t -> bool

val deps : t -> deps option

(** {!deps} without the option, for per-entry readers: the stamped
    [last_committed], or [-1] before {!set_deps}. *)
val last_committed : t -> int

(** Raises [Invalid_argument] on a negative [last_committed]. *)
val set_deps : t -> last_committed:int -> unit

(** The transaction's GTID, if this entry is a transaction. *)
val gtid : t -> Gtid.t option

val is_transaction : t -> bool

(** Re-stamp an existing payload with a new OpId. *)
val with_opid : t -> opid:Opid.t -> t

(** Disk-corruption flavours: [Header] flips a bit in the stored checksum
    field; [Body] silently mutates the payload under a now-stale
    checksum.  A transaction's [Body] rot flips a bit of its XID, which
    no replica applies: its rows are untouched, only the CRC tells. *)
type corruption = Header | Body

(** A bit-rotted copy of the entry, as re-read from a failing disk:
    {!verify} fails on the result.  Payloads with no distinguishable body
    bytes degrade to the [Header] flavour. *)
val corrupt : t -> corruption -> t

val describe : t -> string
