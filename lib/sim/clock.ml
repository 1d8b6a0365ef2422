(* Per-node clock: a view of the engine's global (true) time through a
   local oscillator that may run fast or slow (rate drift) and may be
   stepped forwards or backwards (NTP-style jumps, firmware resets).

   The model keeps a single wall reading: [now] is affected by both rate
   and steps, exactly like CLOCK_REALTIME on a box whose oscillator
   drifts.  Timers, however, are armed as countdowns ([schedule] converts
   the requested local delay to a true delay using the rate in effect at
   arm time): a step never moves an already-armed timer, and a rate
   change only affects timers armed after it — matching a hardware timer
   that counts its own oscillator's ticks from the moment it is set.

   A pristine clock (rate 1.0, never stepped) reads exactly the engine's
   time and schedules exactly like the engine, so code threaded through a
   clock behaves identically to before unless a fault is injected. *)

type t = {
  engine : Engine.t;
  mutable rate : float; (* local microseconds per true microsecond *)
  mutable base_true : float; (* true time at the last rebase *)
  mutable base_local : float; (* local reading at the last rebase *)
}

let create ~engine () =
  let now = Engine.now engine in
  { engine; rate = 1.0; base_true = now; base_local = now }

let now t =
  if t.rate = 1.0 && t.base_local = t.base_true then Engine.now t.engine
  else t.base_local +. ((Engine.now t.engine -. t.base_true) *. t.rate)

let rate t = t.rate

(* Local minus true time: how far this node's wall reading has diverged. *)
let skew t = now t -. Engine.now t.engine

(* Rebase so past readings stay fixed while [rate] changes take effect
   only from this instant forward (continuity across rate faults). *)
let rebase t =
  let local = now t in
  t.base_true <- Engine.now t.engine;
  t.base_local <- local

let set_rate t r =
  if r <= 0.0 then invalid_arg "Clock.set_rate: rate must be positive";
  rebase t;
  t.rate <- r

let step t delta =
  rebase t;
  t.base_local <- t.base_local +. delta

(* Snap back to true time at rate 1.0 — an external resync (NTP step
   after the fault clears).  The snap itself is a step and is observable
   as one by monotonicity watchdogs. *)
let reset t =
  let now = Engine.now t.engine in
  t.rate <- 1.0;
  t.base_true <- now;
  t.base_local <- now

let pristine t = t.rate = 1.0 && skew t = 0.0

(* [delay] is local microseconds; the countdown runs on this oscillator.
   At rate 1.0 a non-negative delay is its own true delay (x /. 1.0 = x),
   so it is handed on as the caller's box; otherwise the clamp below is
   [max 0.0 (delay /. t.rate)] without the polymorphic call's box. *)
let schedule t ~delay fn =
  if t.rate = 1.0 && delay >= 0.0 then Engine.schedule t.engine ~delay fn
  else
    let d = delay /. t.rate in
    Engine.schedule t.engine ~delay:(if 0.0 >= d then 0.0 else d) fn

let schedule_at t ~time fn = schedule t ~delay:(max 0.0 (time -. now t)) fn
