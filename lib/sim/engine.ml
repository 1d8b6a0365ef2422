(* Discrete-event simulation engine.

   Virtual time is a float measured in MICROSECONDS, matching the unit the
   paper reports commit latencies in.  The engine owns a single event
   queue; [schedule] registers a thunk to run after a delay,
   [schedule_call] a two-argument function and its arguments, and
   [run_until] advances virtual time executing due events in (time, seq)
   order.

   The queue holds only live work.  Each scheduled event is one record,
   stored in the heap as is and handed back as its handle: a thunk (three
   words) or a call that carries its function and both arguments (five
   words), so a caller with a top-level function and two values to hand
   it builds no closure.  An event's [owner] field doubles as its state:
   the scheduling engine while queued, one of two sentinel engines once
   cancelled or fired.  So [cancel] reaches the engine's live count
   without a second field.  A cancelled event stays in the heap until it
   reaches the top or until dead events outnumber live ones (above
   [compaction_floor]); then [Heap.filter] drops them all in one linear
   pass.  Firing order is the (key, seq) total order, so compaction
   cannot reorder live events. *)

type t = {
  mutable now : float;
  mutable seq : int;
  queue : handle Heap.t;
  rng : Rng.t;
  mutable executed : int;
  mutable live : int; (* queued and not cancelled *)
}

and handle =
  | Thunk of { mutable owner : t; fn : unit -> unit }
  | Call : { mutable owner : t; call : 'a -> 'b -> unit; a : 'a; b : 'b } -> handle

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

(* Never queued: cancelling it is a no-op, so a timer field can hold it
   while disarmed instead of an option. *)
let none = Thunk { owner = cancelled_mark; fn = ignore }

(* Dead events the queue may hold regardless of the live count, so a
   small queue is not compacted on every other cancel. *)
let compaction_floor = 64

let now t = t.now

let rng t = t.rng

let executed_events t = t.executed

let owner = function Thunk ev -> ev.owner | Call ev -> ev.owner

let set_owner ev owner =
  match ev with Thunk ev -> ev.owner <- owner | Call ev -> ev.owner <- owner

let fire = function Thunk ev -> ev.fn () | Call ev -> ev.call ev.a ev.b

let push t ~key ev =
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  Heap.push t.queue ~key ~seq:t.seq ev;
  ev

let schedule t ~delay fn =
  assert (delay >= 0.0);
  push t ~key:(t.now +. delay) (Thunk { owner = t; fn })

let schedule_call t ~delay call a b =
  assert (delay >= 0.0);
  push t ~key:(t.now +. delay) (Call { owner = t; call; a; b })

let schedule_key t ~key fn =
  assert (key >= t.now);
  push t ~key (Thunk { owner = t; fn })

let schedule_at t ~time fn =
  let delay = max 0.0 (time -. t.now) in
  schedule t ~delay fn

(* Keeps the queue at most [2 * live + compaction_floor] long; each pass
   costs at most twice the cancels since the last one. *)
let compact_if_sparse t =
  let dead = Heap.length t.queue - t.live in
  if dead > t.live && dead > compaction_floor then
    Heap.filter t.queue (fun ev -> owner ev == t)

let cancel ev =
  let t = owner ev in
  if t != cancelled_mark && t != fired_mark then begin
    set_owner ev cancelled_mark;
    t.live <- t.live - 1;
    compact_if_sparse t
  end

let cancelled ev = owner ev == cancelled_mark

(* Run events until the queue is exhausted or virtual time would exceed
   [limit].  Time is left at [limit] when the horizon is reached, so
   consecutive [run_until] calls compose.  Each fired event reads the
   queue's minimum key once; [now] takes that key's box as it is, so
   reading the clock allocates nothing. *)
let rec run_until t limit =
  if Heap.is_empty t.queue then (if limit > t.now then t.now <- limit)
  else begin
    let key = Heap.min_key t.queue in
    if key <= limit then begin
      let ev = Heap.pop_min t.queue in
      if owner ev == t then begin
        set_owner ev fired_mark;
        t.live <- t.live - 1;
        compact_if_sparse t;
        if key > t.now then t.now <- key;
        t.executed <- t.executed + 1;
        fire ev
      end;
      run_until t limit
    end
    else if limit > t.now then t.now <- limit
  end

let run_for t duration = run_until t (t.now +. duration)

let pending t = t.live

let queue_length t = Heap.length t.queue
