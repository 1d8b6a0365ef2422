(* Span recorder for the traced run.

   A span is one call the benchmark wraps at a layer boundary: a message
   send into [Sim.Network], or the delivery of one message into a node's
   handler.  Spans nest (a handler's sends run inside its delivery span),
   so each span's self time is its duration minus the time of the spans
   it encloses; the sum of every self time equals the sum of the
   top-level spans, and the wall time no span covers is the residual:
   engine dispatch plus timer callbacks, which the benchmark does not
   wrap.

   Per-kind totals are plain int array updates and the clock is an
   unboxed noalloc call, so a span costs two clock reads and a few field
   writes.  A bounded raw sample keeps the first [sample_cap] spans
   opened while sampling is on (name, start, end, parent, correlation
   key), written out at exit. *)

let now_ns () = Int64.to_int (Monotonic_clock.now ())

let sample_cap = 50_000

let max_depth = 64

type t = {
  names : string array;
  self_ns : int array;
  calls : int array;
  mutable top_ns : int;  (** summed duration of top-level spans *)
  st_kind : int array;
  st_start : int array;
  st_child : int array;  (** time covered by enclosed spans *)
  st_sample : int array;  (** raw-sample slot, or -1 *)
  mutable depth : int;
  mutable sampling : bool;
  sm_kind : int array;
  sm_start : int array;
  sm_end : int array;
  sm_parent : int array;
  sm_key : int array;
  mutable sm_len : int;
}

let create names =
  let n = Array.length names in
  {
    names;
    self_ns = Array.make n 0;
    calls = Array.make n 0;
    top_ns = 0;
    st_kind = Array.make max_depth 0;
    st_start = Array.make max_depth 0;
    st_child = Array.make max_depth 0;
    st_sample = Array.make max_depth (-1);
    depth = 0;
    sampling = false;
    sm_kind = Array.make sample_cap 0;
    sm_start = Array.make sample_cap 0;
    sm_end = Array.make sample_cap 0;
    sm_parent = Array.make sample_cap (-1);
    sm_key = Array.make sample_cap 0;
    sm_len = 0;
  }

(* Zero the per-kind totals (at the start of a measured window); the raw
   sample is kept and sampling switches on. *)
let reset t =
  Array.fill t.self_ns 0 (Array.length t.self_ns) 0;
  Array.fill t.calls 0 (Array.length t.calls) 0;
  t.top_ns <- 0;
  t.sampling <- true

let enter t kind ~key =
  let d = t.depth in
  t.st_kind.(d) <- kind;
  t.st_child.(d) <- 0;
  t.st_sample.(d) <-
    (if t.sampling && t.sm_len < sample_cap then begin
       let i = t.sm_len in
       t.sm_len <- i + 1;
       t.sm_kind.(i) <- kind;
       t.sm_key.(i) <- key;
       t.sm_parent.(i) <- (if d > 0 then t.st_sample.(d - 1) else -1);
       i
     end
     else -1);
  t.depth <- d + 1;
  t.st_start.(d) <- now_ns ()

let leave t =
  let stop = now_ns () in
  let d = t.depth - 1 in
  t.depth <- d;
  let dur = stop - t.st_start.(d) in
  let k = t.st_kind.(d) in
  t.self_ns.(k) <- t.self_ns.(k) + dur - t.st_child.(d);
  t.calls.(k) <- t.calls.(k) + 1;
  if d > 0 then t.st_child.(d - 1) <- t.st_child.(d - 1) + dur
  else t.top_ns <- t.top_ns + dur;
  let i = t.st_sample.(d) in
  if i >= 0 then begin
    t.sm_start.(i) <- t.st_start.(d);
    t.sm_end.(i) <- stop
  end

let self_ns t k = t.self_ns.(k)

let calls t k = t.calls.(k)

let top_ns t = t.top_ns

(* One JSON object per line: {"i", "name", "start_ns", "end_ns",
   "parent", "key"}; [parent] is the enclosing span's line index or -1. *)
let write_sample t path =
  Out_channel.with_open_text path (fun oc ->
      for i = 0 to t.sm_len - 1 do
        Printf.fprintf oc
          "{\"i\": %d, \"name\": %S, \"start_ns\": %d, \"end_ns\": %d, \"parent\": %d, \
           \"key\": %d}\n"
          i
          t.names.(t.sm_kind.(i))
          t.sm_start.(i) t.sm_end.(i) t.sm_parent.(i) t.sm_key.(i)
      done)

let sample_len t = t.sm_len

(* ----- GC time from Runtime_events -----

   The runtime emits begin/end events for each minor collection and
   major slice into a ring the process itself reads.  Polling between
   simulation chunks adds up the time the runtime spent inside them; the
   outermost phase is timed once even when phases nest.  This time
   overlaps the spans above: a collection triggered inside a handler is
   part of that handler's span too. *)
module Gc_clock = struct
  type state = {
    mutable depth : int;
    mutable started : int;
    mutable total_ns : int;
    mutable lost : int;
  }

  type t = {
    cursor : Runtime_events.cursor;
    callbacks : Runtime_events.Callbacks.t;
    st : state;
  }

  let tracked = function
    | Runtime_events.EV_MINOR | Runtime_events.EV_MAJOR | Runtime_events.EV_MAJOR_SLICE ->
      true
    | _ -> false

  let ts_ns ts = Int64.to_int (Runtime_events.Timestamp.to_int64 ts)

  let start () =
    Runtime_events.start ();
    let st = { depth = 0; started = 0; total_ns = 0; lost = 0 } in
    let callbacks =
      Runtime_events.Callbacks.create
        ~runtime_begin:(fun _ ts phase ->
          if tracked phase then begin
            if st.depth = 0 then st.started <- ts_ns ts;
            st.depth <- st.depth + 1
          end)
        ~runtime_end:(fun _ ts phase ->
          if tracked phase && st.depth > 0 then begin
            st.depth <- st.depth - 1;
            if st.depth = 0 then st.total_ns <- st.total_ns + (ts_ns ts - st.started)
          end)
        ~lost_events:(fun _ n -> st.lost <- st.lost + n)
        ()
    in
    { cursor = Runtime_events.create_cursor None; callbacks; st }

  let poll t = ignore (Runtime_events.read_poll t.cursor t.callbacks None : int)

  (* Drop what was read so far: the next total covers only later GC. *)
  let reset t =
    poll t;
    t.st.total_ns <- 0;
    t.st.lost <- 0

  let total_ns t = t.st.total_ns

  let lost t = t.st.lost
end
