(** CRC-32 (IEEE 802.3, reflected) — the checksum MySQL stamps on binlog
    events.  MyRaft generates it at OpId-assignment time (§3.4).

    Runs on native ints (no per-byte boxing) and exposes a streaming API
    so structured digests fold fields in directly instead of marshalling
    them into a throwaway string first. *)

val string : string -> int32

(** {2 Streaming interface}

    [finalize (feed_string init s)] equals [string s].  The state is an
    immediate value; threading it through a fold allocates nothing. *)

type state

val init : state

val feed_string : state -> string -> state

(** Feed a native int as 8 little-endian bytes. *)
val feed_int : state -> int -> state

(** Feed the 4 bytes of an [int32] (little-endian). *)
val feed_int32 : state -> int32 -> state

val finalize : state -> int32

(** The same CRC as an unboxed, non-negative int below 2{^32}:
    [Int32.of_int] of it is [finalize], and [feed_int] of it feeds what
    [feed_int32] of [finalize] does. *)
val finalize_int : state -> int
