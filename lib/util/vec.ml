(* Growable array (OCaml 5.1 predates Stdlib.Dynarray).

   Supports O(1) push/pop at the back and O(1) random access; used for log
   entry storage where the Raft index maps directly to a vector slot.

   Storage is a directory of fixed [chunk_size]-slot chunks: element i
   lives at slot [i land chunk_mask] of chunk [i lsr chunk_bits].  Growth
   appends a chunk and never copies or abandons a filled slot — a flat
   array that doubles leaves its old copy behind in the major heap on
   every growth, and holds up to half its length of empty slack.  Only
   chunk 0 starts small and doubles up to [chunk_size], so a short-lived
   vector costs a few words, not a whole chunk.  The directory itself
   doubles, but it holds one word per chunk. *)

let chunk_bits = 12

let chunk_size = 1 lsl chunk_bits

let chunk_mask = chunk_size - 1

type 'a t = {
  mutable chunks : 'a array array; (* directory; unused entries share chunk 0 *)
  mutable nchunks : int; (* chunks in use *)
  mutable size : int;
  dummy : 'a;
}

let create ~dummy = { chunks = [| Array.make 8 dummy |]; nchunks = 1; size = 0; dummy }

let length t = t.size

let is_empty t = t.size = 0

let[@inline] unsafe_get t i =
  Array.unsafe_get (Array.unsafe_get t.chunks (i lsr chunk_bits)) (i land chunk_mask)

let get t i =
  if i < 0 || i >= t.size then invalid_arg "Vec.get: out of bounds";
  unsafe_get t i

let get_opt t i = if i < 0 || i >= t.size then None else Some (unsafe_get t i)

let set t i v =
  if i < 0 || i >= t.size then invalid_arg "Vec.set: out of bounds";
  Array.unsafe_set (Array.unsafe_get t.chunks (i lsr chunk_bits)) (i land chunk_mask) v

(* Make room for element [t.size]: double chunk 0 while it is short,
   otherwise open a fresh chunk (doubling the directory when full). *)
let grow t =
  let c0 = t.chunks.(0) in
  if t.size < chunk_size then begin
    let c = Array.make (min chunk_size (2 * Array.length c0)) t.dummy in
    Array.blit c0 0 c 0 t.size;
    t.chunks.(0) <- c
  end
  else begin
    if t.nchunks = Array.length t.chunks then begin
      let dir = Array.make (2 * t.nchunks) c0 in
      Array.blit t.chunks 0 dir 0 t.nchunks;
      t.chunks <- dir
    end;
    t.chunks.(t.nchunks) <- Array.make chunk_size t.dummy;
    t.nchunks <- t.nchunks + 1
  end

let push t v =
  let i = t.size in
  let c = i lsr chunk_bits in
  if c >= t.nchunks || i land chunk_mask >= Array.length t.chunks.(c) then grow t;
  Array.unsafe_set t.chunks.(c) (i land chunk_mask) v;
  t.size <- i + 1

(* Shrink to [n] elements, returning the removed tail (front-to-back order).
   Emptied chunks stay allocated for the next pushes. *)
let truncate_to t n =
  if n < 0 || n > t.size then invalid_arg "Vec.truncate_to";
  let removed = ref [] in
  for i = t.size - 1 downto n do
    removed := unsafe_get t i :: !removed;
    set t i t.dummy
  done;
  t.size <- n;
  !removed

let iter t f =
  for i = 0 to t.size - 1 do
    f (unsafe_get t i)
  done

let iteri t f =
  for i = 0 to t.size - 1 do
    f i (unsafe_get t i)
  done

let fold t ~init f =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc (unsafe_get t i)
  done;
  !acc

let to_list t = List.init t.size (unsafe_get t)

(* Elements in [lo, hi) as a list. *)
let slice t ~lo ~hi =
  let lo = max 0 lo and hi = min t.size hi in
  if hi <= lo then [] else List.init (hi - lo) (fun i -> unsafe_get t (lo + i))
