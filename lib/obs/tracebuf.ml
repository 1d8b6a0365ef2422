(* Structured trace ring buffer, correlated by Raft OpId.

   Every event carries the (term, index) pair Raft stamped on the
   transaction it concerns, so one transaction can be followed through
   its pipeline stages — flush, consensus-commit, engine-commit — across
   the primary and every replica writing into the same ring.  The ring
   is fixed-capacity: recording is O(1), old events are overwritten, and
   [dropped] says how many were lost to wraparound.

   The ring is columnar: one array per field, so [record] only writes
   slots (the strings it stores are the caller's, shared not copied) and
   allocates nothing.  A ring of event records would keep every event
   alive past a minor GC and promote it; here events are materialised
   only when read.

   Distinct from [Sim.Trace], the free-form printf debug trace: these
   events are structured (queryable by OpId) and bounded. *)

type event = {
  ev_seq : int; (* monotonically increasing record number *)
  ev_time : float;
  ev_node : string;
  ev_stage : string; (* "flush" | "consensus-commit" | "engine-commit" | ... *)
  ev_term : int;
  ev_index : int;
  ev_detail : string;
}

(* The columns start short and double up to [cap] while the ring first
   fills, so a cluster that records few events never pays for the full
   ring. *)
type t = {
  cap : int;
  mutable times : float array;
  mutable nodes : string array;
  mutable stages : string array;
  mutable details : string array;
  mutable terms : int array;
  mutable indexes : int array;
  mutable total : int; (* events ever recorded *)
}

let resize t n =
  let widen column fill =
    let c = Array.make n fill in
    Array.blit column 0 c 0 (Array.length column);
    c
  in
  t.times <- widen t.times 0.;
  t.nodes <- widen t.nodes "";
  t.stages <- widen t.stages "";
  t.details <- widen t.details "";
  t.terms <- widen t.terms 0;
  t.indexes <- widen t.indexes 0

let create ?(capacity = 4096) () =
  if capacity <= 0 then invalid_arg "Tracebuf.create: capacity must be positive";
  let t =
    { cap = capacity; times = [||]; nodes = [||]; stages = [||]; details = [||];
      terms = [||]; indexes = [||]; total = 0 }
  in
  resize t (min capacity 64);
  t

let record t ~time ~node ~stage ~term ~index ?(detail = "") () =
  let slot = t.total mod t.cap in
  if slot = Array.length t.times then resize t (min t.cap (2 * slot));
  t.times.(slot) <- time;
  t.nodes.(slot) <- node;
  t.stages.(slot) <- stage;
  t.details.(slot) <- detail;
  t.terms.(slot) <- term;
  t.indexes.(slot) <- index;
  t.total <- t.total + 1

let capacity t = t.cap

let total t = t.total

let length t = min t.total t.cap

let dropped t = max 0 (t.total - t.cap)

let event_at t seq =
  let slot = seq mod t.cap in
  { ev_seq = seq; ev_time = t.times.(slot); ev_node = t.nodes.(slot);
    ev_stage = t.stages.(slot); ev_term = t.terms.(slot);
    ev_index = t.indexes.(slot); ev_detail = t.details.(slot) }

(* Retained events with record number >= [from] that satisfy [keep]
   (tested on the slot before any record is built), oldest first. *)
let collect t ~from keep =
  let acc = ref [] in
  for seq = t.total - 1 downto from do
    if keep (seq mod t.cap) then acc := event_at t seq :: !acc
  done;
  !acc

let first_retained t = t.total - length t

(* Retained events, oldest first. *)
let events t = collect t ~from:(first_retained t) (fun _ -> true)

let filter t pred = List.filter pred (events t)

(* All retained events for one OpId, oldest first — one transaction's
   journey across stages and nodes. *)
let for_opid t ~term ~index =
  collect t ~from:(first_retained t) (fun slot ->
      t.terms.(slot) = term && t.indexes.(slot) = index)

let for_stage t ~stage =
  collect t ~from:(first_retained t) (fun slot -> String.equal t.stages.(slot) stage)

let event_to_string ev =
  Printf.sprintf "[%12.0fus] %-10s %-18s opid=%d.%d%s" ev.ev_time ev.ev_node ev.ev_stage
    ev.ev_term ev.ev_index
    (if ev.ev_detail = "" then "" else " " ^ ev.ev_detail)

let render ?(last = max_int) t =
  let from = max (first_retained t) (t.total - last) in
  String.concat "\n" (List.map event_to_string (collect t ~from (fun _ -> true)))
