(* Discrete-event simulation engine.

   Virtual time is a float measured in MICROSECONDS, matching the unit the
   paper reports commit latencies in.  The engine owns a single event
   queue; [schedule] registers a thunk to run after a delay, [run_until]
   advances virtual time executing due events in (time, seq) order.

   The queue holds only live work.  Each scheduled event is one record,
   stored in the heap as is and handed back as its handle.  Its [owner]
   field doubles as its state: the scheduling engine while queued, one of
   two sentinel engines once cancelled or fired.  So [cancel] reaches the
   engine's live count without a second field, and an event costs three
   words.  A cancelled event stays in the heap until it reaches the top or
   until dead events outnumber live ones (above [compaction_floor]); then
   [Heap.filter] drops them all in one linear pass.  Firing order is the
   (key, seq) total order, so compaction cannot reorder live events. *)

type t = {
  mutable now : float;
  mutable seq : int;
  queue : handle Heap.t;
  rng : Rng.t;
  mutable executed : int;
  mutable live : int; (* queued and not cancelled *)
}

and handle = { mutable owner : t; fn : unit -> unit }

let us = 1.0
let ms = 1_000.0
let s = 1_000_000.0

let create ?(seed = 42) () =
  {
    now = 0.0;
    seq = 0;
    queue = Heap.create ();
    rng = Rng.of_int seed;
    executed = 0;
    live = 0;
  }

(* The owners of events that left the queue. *)
let cancelled_mark = create ()

let fired_mark = create ()

(* Dead events the queue may hold regardless of the live count, so a
   small queue is not compacted on every other cancel. *)
let compaction_floor = 64

let now t = t.now

let rng t = t.rng

let executed_events t = t.executed

let push t ~key fn =
  let ev = { owner = t; fn } in
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  Heap.push t.queue ~key ~seq:t.seq ev;
  ev

let schedule t ~delay fn =
  assert (delay >= 0.0);
  push t ~key:(t.now +. delay) fn

let schedule_key t ~key fn =
  assert (key >= t.now);
  push t ~key fn

let schedule_at t ~time fn =
  let delay = max 0.0 (time -. t.now) in
  schedule t ~delay fn

(* Keeps the queue at most [2 * live + compaction_floor] long; each pass
   costs at most twice the cancels since the last one. *)
let compact_if_sparse t =
  let dead = Heap.length t.queue - t.live in
  if dead > t.live && dead > compaction_floor then
    Heap.filter t.queue (fun ev -> ev.owner == t)

let cancel ev =
  let t = ev.owner in
  if t != cancelled_mark && t != fired_mark then begin
    ev.owner <- cancelled_mark;
    t.live <- t.live - 1;
    compact_if_sparse t
  end

let cancelled ev = ev.owner == cancelled_mark

(* Run events until the queue is exhausted or virtual time would exceed
   [limit].  Time is left at [limit] when the horizon is reached, so
   consecutive [run_until] calls compose. *)
let run_until t limit =
  let rec loop () =
    if (not (Heap.is_empty t.queue)) && Heap.min_key t.queue <= limit then begin
      let key = Heap.min_key t.queue in
      let ev = Heap.pop_min t.queue in
      if ev.owner == t then begin
        ev.owner <- fired_mark;
        t.live <- t.live - 1;
        compact_if_sparse t;
        t.now <- max t.now key;
        t.executed <- t.executed + 1;
        ev.fn ()
      end;
      loop ()
    end
    else t.now <- max t.now limit
  in
  loop ()

let run_for t duration = run_until t (t.now +. duration)

let pending t = t.live

let queue_length t = Heap.length t.queue
