(* CRC-32 (IEEE 802.3 polynomial, reflected), the checksum MySQL stamps on
   binlog events.  MyRaft generates it at OpId-assignment time to detect
   later corruption; we verify it when the log abstraction reads entries
   back for lagging followers.

   The arithmetic runs on native [int]s (the running CRC fits 32 bits, an
   OCaml int holds 63): a boxed-[Int32] loop allocates a fresh box per
   input byte, which on the commit hot path — one CRC per flushed entry
   plus one per engine commit per node — dominated the minor heap.  The
   streaming [feed_*] API exists for digests computed over structured
   fields (entry payloads, the engine's commit-digest chain): callers fold
   fields in directly instead of marshalling them into a throwaway string
   first.

   Strings are consumed eight bytes per step (slicing-by-8): eight
   derived tables let one step fold a whole 64-bit word, in place of
   eight dependent table lookups.  The result is the same CRC-32. *)

(* [tables.((k * 256) + n)] is the CRC of byte [n] followed by [k] zero
   bytes; slice 0 is the classic bytewise table. *)
let tables =
  lazy
    (let t = Array.make (8 * 256) 0 in
     for n = 0 to 255 do
       let c = ref n in
       for _ = 0 to 7 do
         if !c land 1 <> 0 then c := 0xEDB88320 lxor (!c lsr 1) else c := !c lsr 1
       done;
       t.(n) <- !c
     done;
     for k = 1 to 7 do
       for n = 0 to 255 do
         let prev = t.(((k - 1) * 256) + n) in
         t.((k * 256) + n) <- (prev lsr 8) lxor t.(prev land 0xFF)
       done
     done;
     t)

(* Running (pre-inversion) CRC state: an immediate int, never boxed. *)
type state = int

let init = 0xFFFFFFFF

let[@inline] feed_byte tables crc b =
  Array.unsafe_get tables ((crc lxor b) land 0xFF) lxor (crc lsr 8)

external get64u : string -> int -> int64 = "%caml_string_get64u"

external bswap64 : int64 -> int64 = "%bswap_int64"

(* Bytes [i .. i+7] of [s] as a little-endian word, split into its low
   and high 32-bit halves (a native int holds 63 bits, not 64). *)
let[@inline] word_le s i =
  let w = get64u s i in
  if Sys.big_endian then bswap64 w else w

let[@inline] slice tables k n = Array.unsafe_get tables ((k lsl 8) lor n)

(* One slicing step: fold the 8 bytes [lo] (low 32 bits, little-endian)
   and [hi] (high 32 bits) into [crc]. *)
let[@inline] step tables crc lo hi =
  let lo = crc lxor lo in
  slice tables 7 (lo land 0xFF)
  lxor slice tables 6 ((lo lsr 8) land 0xFF)
  lxor slice tables 5 ((lo lsr 16) land 0xFF)
  lxor slice tables 4 (lo lsr 24)
  lxor slice tables 3 (hi land 0xFF)
  lxor slice tables 2 ((hi lsr 8) land 0xFF)
  lxor slice tables 1 ((hi lsr 16) land 0xFF)
  lxor slice tables 0 (hi lsr 24)

let feed_string crc s =
  let tables = Lazy.force tables in
  let len = String.length s in
  let crc = ref crc in
  let i = ref 0 in
  while !i + 8 <= len do
    let w = word_le s !i in
    crc :=
      step tables !crc
        (Int64.to_int w land 0xFFFFFFFF)
        (Int64.to_int (Int64.shift_right_logical w 32));
    i := !i + 8
  done;
  for j = !i to len - 1 do
    crc := feed_byte tables !crc (Char.code (String.unsafe_get s j))
  done;
  !crc

(* Feed a native int as 8 little-endian bytes (ints on the hot path are
   log indexes, terms and GNOs — all well under 2^63). *)
let feed_int crc n = step (Lazy.force tables) crc (n land 0xFFFFFFFF) (n lsr 32)

let finalize_int crc = crc lxor 0xFFFFFFFF

let finalize crc = Int32.of_int (finalize_int crc)

let string s = finalize (feed_string init s)
