(* Discrete-event simulation engine.

   Virtual time is a float measured in MICROSECONDS, matching the unit the
   paper reports commit latencies in.  [schedule] registers a thunk to
   run after a delay, [schedule_call] a two-argument function and its
   arguments, and [run_until] advances virtual time executing due events
   in (time, seq) order, so same-instant events fire in scheduling order.

   The queue is a binary min-heap held in the engine as three parallel
   columns: keys in a flat [float array], sequence numbers and events.
   A scheduler writes [now +. delay] straight into [keys] and [run_until]
   compares [keys.(0)] in place, so no key is ever boxed; the clock is
   boxed only when time advances.  [schedule_call_cell] reads its delay
   from an all-float record, so that handoff boxes nothing either.

   Each event is one record, queued as is and handed back as its handle:
   a thunk (three words) or a call carrying its function and both
   arguments (five words), so a caller with a top-level function builds
   no closure.  An event's [owner] doubles as its state: the scheduling
   engine while queued, one of two sentinel engines once cancelled or
   fired, so [cancel] reaches the live count without a second field.  A
   cancelled event stays queued until it reaches the top or until dead
   events outnumber live ones (above [compaction_floor]); then
   [drop_dead] removes them all in one linear pass.  Firing order is the
   (key, seq) total order, so compaction cannot reorder live events. *)

type t = {
  mutable now : float;
  mutable seq : int;
  mutable keys : float array;
  mutable seqs : int array;
  mutable values : handle array;
  mutable size : int; (* queued events, cancelled ones included *)
  rng : Rng.t;
  mutable executed : int;
  mutable live : int; (* queued and not cancelled *)
}

and handle =
  | Thunk of { mutable owner : t; fn : unit -> unit }
  | Call : { mutable owner : t; call : 'a -> 'b -> unit; a : 'a; b : 'b } -> handle

type delay_cell = { mutable delay : float }

let us = 1.0
let ms = 1_000.0
let s = 1_000_000.0

let create ?(seed = 42) () =
  {
    now = 0.0;
    seq = 0;
    keys = [||];
    seqs = [||];
    values = [||];
    size = 0;
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

(* ----- the queue ----- *)

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

(* The next event's slot, the columns doubled (from 16) when full; the
   scheduler writes the key there, then [push]es the event. *)
let next_slot t =
  if t.size = Array.length t.keys then begin
    let capacity = max 16 (2 * t.size) in
    let keys = Array.make capacity 0.0 in
    let seqs = Array.make capacity 0 in
    let values = Array.make capacity none in
    Array.blit t.keys 0 keys 0 t.size;
    Array.blit t.seqs 0 seqs 0 t.size;
    Array.blit t.values 0 values 0 t.size;
    t.keys <- keys;
    t.seqs <- seqs;
    t.values <- values
  end;
  t.size

let push t ev =
  let i = t.size in
  t.seq <- t.seq + 1;
  t.live <- t.live + 1;
  t.seqs.(i) <- t.seq;
  t.values.(i) <- ev;
  t.size <- i + 1;
  sift_up t i;
  ev

(* Precondition: the queue is non-empty. *)
let pop_min t =
  let top = t.values.(0) in
  let n = t.size - 1 in
  t.size <- n;
  if n > 0 then begin
    t.keys.(0) <- t.keys.(n);
    t.seqs.(0) <- t.seqs.(n);
    t.values.(0) <- t.values.(n);
    (* alias the live root instead of retaining the moved-out event *)
    t.values.(n) <- t.values.(0);
    sift_down t 0
  end;
  top

(* Drop every cancelled event in place, then restore the heap property
   bottom-up: O(size) for the whole pass.  Pop order among the live
   events is unchanged, since (key, seq) is a total order. *)
let drop_dead t =
  let n = t.size in
  let kept = ref 0 in
  for i = 0 to n - 1 do
    if owner t.values.(i) == t then begin
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

(* ----- scheduling ----- *)

let schedule t ~delay fn =
  assert (delay >= 0.0);
  let i = next_slot t in
  t.keys.(i) <- t.now +. delay;
  push t (Thunk { owner = t; fn })

let schedule_call t ~delay call a b =
  assert (delay >= 0.0);
  let i = next_slot t in
  t.keys.(i) <- t.now +. delay;
  push t (Call { owner = t; call; a; b })

let schedule_call_cell t cell call a b =
  assert (cell.delay >= 0.0);
  let i = next_slot t in
  t.keys.(i) <- t.now +. cell.delay;
  push t (Call { owner = t; call; a; b })

let schedule_key t ~key fn =
  assert (key >= t.now);
  let i = next_slot t in
  t.keys.(i) <- key;
  push t (Thunk { owner = t; fn })

let schedule_at t ~time fn =
  let delay = max 0.0 (time -. t.now) in
  schedule t ~delay fn

(* Keeps the queue at most [2 * live + compaction_floor] long; each pass
   costs at most twice the cancels since the last one. *)
let compact_if_sparse t =
  let dead = t.size - t.live in
  if dead > t.live && dead > compaction_floor then drop_dead t

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
   queue's minimum key in place; the clock is boxed only when the key
   moves it forward. *)
let rec run_until t limit =
  if t.size = 0 then (if limit > t.now then t.now <- limit)
  else begin
    let key = t.keys.(0) in
    if key <= limit then begin
      let ev = pop_min t in
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

let queue_length t = t.size
