(* Local append time per log index: a ring with an owner column.  See the
   interface for the liveness rule. *)

type t = {
  mutable times : float array;
  mutable owners : int array; (* [min_int]: never stamped *)
  mutable commit_index : int; (* owners at or below it are dead *)
}

let create () =
  { times = Array.make 256 0.0; owners = Array.make 256 min_int; commit_index = 0 }

let capacity t = Array.length t.owners

(* Double the ring.  Live stamps sat in distinct slots of the smaller
   ring, so they land in distinct slots of the larger one. *)
let grow t =
  let times = t.times and owners = t.owners in
  let cap = 2 * Array.length owners in
  t.times <- Array.make cap 0.0;
  t.owners <- Array.make cap min_int;
  Array.iteri
    (fun slot index ->
      if index > t.commit_index then begin
        t.owners.(index land (cap - 1)) <- index;
        t.times.(index land (cap - 1)) <- times.(slot)
      end)
    owners

let rec stamp t ~commit_index index time =
  if index > commit_index then begin
    t.commit_index <- commit_index;
    let slot = index land (Array.length t.owners - 1) in
    let owner = t.owners.(slot) in
    if owner = index || owner <= commit_index then begin
      t.owners.(slot) <- index;
      t.times.(slot) <- time
    end
    else begin
      grow t;
      stamp t ~commit_index index time
    end
  end

let elapsed t index ~now =
  let slot = index land (Array.length t.owners - 1) in
  if t.owners.(slot) = index then now -. t.times.(slot) else nan
