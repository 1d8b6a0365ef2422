(* Discrete-event simulation engine.

   Virtual time is a float measured in MICROSECONDS, matching the unit the
   paper reports commit latencies in.  The engine owns a single event
   queue; [schedule] registers a thunk to run after a delay, [run_until]
   advances virtual time executing due events in (time, seq) order. *)

type handle = { mutable cancelled : bool }

type t = {
  mutable now : float;
  mutable seq : int;
  queue : (handle * (unit -> unit)) Heap.t;
  rng : Rng.t;
  mutable executed : int;
}

let us = 1.0
let ms = 1_000.0
let s = 1_000_000.0

let create ?(seed = 42) () =
  { now = 0.0; seq = 0; queue = Heap.create (); rng = Rng.of_int seed; executed = 0 }

let now t = t.now

let rng t = t.rng

let executed_events t = t.executed

let push t ~key fn =
  let handle = { cancelled = false } in
  t.seq <- t.seq + 1;
  Heap.push t.queue ~key ~seq:t.seq (handle, fn);
  handle

let schedule t ~delay fn =
  assert (delay >= 0.0);
  push t ~key:(t.now +. delay) fn

let schedule_key t ~key fn =
  assert (key >= t.now);
  push t ~key fn

let schedule_at t ~time fn =
  let delay = max 0.0 (time -. t.now) in
  schedule t ~delay fn

let cancel handle = handle.cancelled <- true

let cancelled handle = handle.cancelled

(* Run events until the queue is exhausted or virtual time would exceed
   [limit].  Time is left at [limit] when the horizon is reached, so
   consecutive [run_until] calls compose. *)
let run_until t limit =
  let rec loop () =
    if (not (Heap.is_empty t.queue)) && Heap.min_key t.queue <= limit then begin
      let key = Heap.min_key t.queue in
      let handle, fn = Heap.pop_min t.queue in
      t.now <- max t.now key;
      if not handle.cancelled then begin
        t.executed <- t.executed + 1;
        fn ()
      end;
      loop ()
    end
    else t.now <- max t.now limit
  in
  loop ()

let run_for t duration = run_until t (t.now +. duration)

(* Drain the queue completely; safe only for workloads that terminate. *)
let run t ~max_events =
  let rec loop n =
    if n >= max_events then failwith "Engine.run: event budget exhausted"
    else if Heap.is_empty t.queue then ()
    else begin
      let key = Heap.min_key t.queue in
      let handle, fn = Heap.pop_min t.queue in
      t.now <- max t.now key;
      if handle.cancelled then loop n
      else begin
        t.executed <- t.executed + 1;
        fn ();
        loop (n + 1)
      end
    end
  in
  loop 0

let pending t = Heap.length t.queue
