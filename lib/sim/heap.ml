(* Array-backed binary min-heap keyed by (time, sequence).

   The sequence number breaks ties so that events scheduled at the same
   virtual instant fire in scheduling order, which keeps runs
   deterministic.

   Stored as a structure of arrays: keys live in a flat [float array]
   (unboxed), so steady-state push/pop allocates nothing beyond the
   occasional capacity doubling.  This heap sits under every simulated
   event, so it is the hottest allocation site in the whole harness. *)

type 'a t = {
  mutable keys : float array;
  mutable seqs : int array;
  mutable values : 'a array;
  mutable size : int;
}

let create () = { keys = [||]; seqs = [||]; values = [||]; size = 0 }

let length t = t.size

let is_empty t = t.size = 0

let less t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  ki < kj || (ki = kj && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let v = t.values.(i) in
  t.values.(i) <- t.values.(j);
  t.values.(j) <- v

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if less t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < t.size && less t l !smallest then smallest := l;
  if r < t.size && less t r !smallest then smallest := r;
  if !smallest <> i then begin
    swap t i !smallest;
    sift_down t !smallest
  end

let grow t value =
  let capacity = max 16 (2 * Array.length t.keys) in
  let keys = Array.make capacity 0.0 in
  let seqs = Array.make capacity 0 in
  let values = Array.make capacity value in
  Array.blit t.keys 0 keys 0 t.size;
  Array.blit t.seqs 0 seqs 0 t.size;
  Array.blit t.values 0 values 0 t.size;
  t.keys <- keys;
  t.seqs <- seqs;
  t.values <- values

let push t ~key ~seq value =
  if t.size = Array.length t.keys then grow t value;
  let i = t.size in
  t.keys.(i) <- key;
  t.seqs.(i) <- seq;
  t.values.(i) <- value;
  t.size <- t.size + 1;
  sift_up t i

(* Precondition for [min_key] and [pop_min]: the heap is non-empty. *)
let min_key t = t.keys.(0)

let pop_min t =
  let top = t.values.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    t.keys.(0) <- t.keys.(n);
    t.seqs.(0) <- t.seqs.(n);
    t.values.(0) <- t.values.(n);
    (* alias the live root instead of retaining the moved-out value *)
    t.values.(n) <- t.values.(0);
    sift_down t 0
  end;
  top

(* Drop every entry [keep] rejects, in place, then restore the heap
   property bottom-up: O(length) for the whole pass.  Pop order among the
   kept entries is unchanged, since (key, seq) is a total order. *)
let filter t keep =
  let n = t.size in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if keep t.values.(i) then begin
      let j = !kept in
      t.keys.(j) <- t.keys.(i);
      t.seqs.(j) <- t.seqs.(i);
      t.values.(j) <- t.values.(i);
      kept := j + 1
    end
  done;
  let m = !kept in
  t.size <- m;
  if m = 0 then begin
    (* nothing live to alias the vacated slots to: release them *)
    t.keys <- [||];
    t.seqs <- [||];
    t.values <- [||]
  end
  else begin
    Array.fill t.values m (n - m) t.values.(0);
    for i = (m / 2) - 1 downto 0 do
      sift_down t i
    done
  end
