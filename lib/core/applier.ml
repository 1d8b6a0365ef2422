(* The replica's applier (§3.5), as a WRITESET-driven parallel scheduler.

   Raft writes incoming transactions to the relay log and signals the
   applier.  A coordinator walks the relay log strictly in order and
   dispatches each entry to one of [applier_workers] simulated worker
   lanes once its dependency interval allows: a transaction stamped
   (last_committed, sequence_number) by the primary's writeset tracker
   may start executing as soon as last_committed <= applied_index (the
   low-water-mark of engine-committed indexes), because every earlier
   transaction it conflicts with is at or below that mark.  Unstamped
   entries (no-ops, config changes, rotates, pre-writeset transactions)
   act as barriers: they wait until everything earlier has been
   submitted, which is exactly the old serial applier's schedule.

   Only the *execute* phase (apply_per_txn_us) runs concurrently.
   Submission into the three-stage commit pipeline stays in log order —
   a worker that finishes executing entry i+1 parks it until entry i has
   been submitted — so the FIFO pipeline still pins engine-commit order
   (MySQL's slave_preserve_commit_order) and the recovery cursor
   argument of §3.3 step 5 is untouched.

   [applied_index] is a true low-water-mark over out-of-order engine
   commits: completions above a gap are parked in [done_set] and the
   mark only advances while contiguous.  It remains what promotion
   step 2 waits on and what positions the cursor after a role change.

   Fencing: every dispatched entry carries a liveness token.  stop/start
   invalidate all tokens; log truncation invalidates only tokens at or
   above the truncation point (plus unsubmitted entries below it, which
   are salvaged back onto the queue to re-execute) while entries already
   submitted to the pipeline below the point stay live — their commits
   are real and must still advance the mark.  The token is also handed
   to [process] so the server can abandon row-lock retry loops whose
   entry has been truncated away. *)

type token = { mutable live : bool }

type lane_state =
  | Executing (* worker lane busy simulating apply_per_txn_us *)
  | Ready (* executed; parked until its turn to submit *)
  | Submitting (* process called; prepare may be retrying a row lock *)
  | Submitted (* in the pipeline; lane released; awaiting engine commit *)

type inflight = { entry : Binlog.Entry.t; tok : token; mutable state : lane_state }

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  mutable running : bool;
  mutable queue : Binlog.Entry.t Queue.t; (* relay-log order, not yet dispatched *)
  inflight : (int, inflight) Hashtbl.t; (* index -> dispatched, not yet done *)
  done_set : (int, unit) Hashtbl.t; (* committed above the low-water-mark *)
  mutable applied_index : int; (* lwm of engine-committed indexes *)
  mutable next_expected : int; (* next log index to enqueue *)
  mutable next_to_submit : int; (* submission cursor (log order) *)
  mutable applied_txns : int;
  mutable commit_index : int; (* last consensus commit index seen, for lag *)
  mutable dep_stalls : int;
  mutable last_stall_index : int; (* dedup stall counting per head entry *)
  process :
    Binlog.Entry.t ->
    live:(unit -> bool) ->
    on_submitted:(unit -> unit) ->
    on_done:(ok:bool -> unit) ->
    unit;
    (* prepare + pipeline submission; [live] lets retry loops check the
       entry is still wanted, [on_submitted] fires once the entry is in
       the pipeline (its commit order is pinned), [on_done] after engine
       commit *)
  m_applied : Obs.Metrics.counter;
  m_queue_depth : Obs.Metrics.gauge;
  m_workers_busy : Obs.Metrics.gauge;
  m_dep_stalls : Obs.Metrics.counter;
  m_lag : Obs.Metrics.gauge;
}

let create ?metrics ~engine ~params ~process () =
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  {
    engine;
    params;
    running = false;
    queue = Queue.create ();
    inflight = Hashtbl.create 64;
    done_set = Hashtbl.create 64;
    applied_index = 0;
    next_expected = 1;
    next_to_submit = 1;
    applied_txns = 0;
    commit_index = 0;
    dep_stalls = 0;
    last_stall_index = -1;
    process;
    m_applied = Obs.Metrics.counter m "applier.txns_applied";
    m_queue_depth = Obs.Metrics.gauge m "applier.queue_depth";
    m_workers_busy = Obs.Metrics.gauge m "applier.workers_busy";
    m_dep_stalls = Obs.Metrics.counter m "applier.dep_stalls";
    m_lag = Obs.Metrics.gauge m "applier.lag";
  }

let applied_index t = t.applied_index

let applied_txns t = t.applied_txns

let dep_stalls t = t.dep_stalls

let is_running t = t.running

let workers t = max 1 t.params.Params.applier_workers

(* Lanes are held from dispatch until on_submitted (a worker owns its
   transaction through execution, parking and prepare, like a real MTS
   worker thread); submitted entries wait in the pipeline lane-free. *)
let busy_workers t =
  Hashtbl.fold
    (fun _ fl acc -> match fl.state with Submitted -> acc | _ -> acc + 1)
    t.inflight 0

let queue_length t = Queue.length t.queue

let update_gauges t =
  Obs.Metrics.set_gauge t.m_queue_depth (float_of_int (Queue.length t.queue));
  Obs.Metrics.set_gauge t.m_workers_busy (float_of_int (busy_workers t))

let update_lag t =
  Obs.Metrics.set_gauge t.m_lag (float_of_int (max 0 (t.commit_index - t.applied_index)))

let note_commit_index t ci =
  if ci > t.commit_index then begin
    t.commit_index <- ci;
    update_lag t
  end

(* May the relay-log head start executing?  Stamped transactions gate on
   the engine-committed low-water-mark; everything else (and pre-writeset
   transactions) is a barrier that waits for all earlier submissions —
   the serial applier's schedule. *)
let dep_ok t entry =
  let barrier () = Binlog.Entry.index entry = t.next_to_submit in
  match Binlog.Entry.payload entry with
  | Binlog.Entry.Transaction _ ->
    let last_committed = Binlog.Entry.last_committed entry in
    if last_committed >= 0 then last_committed <= t.applied_index else barrier ()
  | _ -> barrier ()

let record_done t index entry =
  if index > t.applied_index && not (Hashtbl.mem t.done_set index) then begin
    Hashtbl.replace t.done_set index ();
    while Hashtbl.mem t.done_set (t.applied_index + 1) do
      Hashtbl.remove t.done_set (t.applied_index + 1);
      t.applied_index <- t.applied_index + 1
    done;
    if Binlog.Entry.is_transaction entry then begin
      t.applied_txns <- t.applied_txns + 1;
      Obs.Metrics.incr t.m_applied
    end;
    update_lag t
  end

(* Submit ready entries to the commit pipeline strictly in log order.
   At most one entry is in the Submitting window at a time: on_submitted
   fires synchronously unless prepare hits a row-lock conflict, so the
   window is exactly the conflict-retry loop — later entries must not
   slip into the pipeline ahead of it (commit order), which also means a
   retrying prepare head-of-line-blocks submission just like the serial
   applier did. *)
let rec try_submit t =
  if t.running && not (Hashtbl.fold (fun _ fl acc -> acc || fl.state = Submitting) t.inflight false)
  then
    match Hashtbl.find_opt t.inflight t.next_to_submit with
    | Some fl when fl.state = Ready ->
      fl.state <- Submitting;
      let index = Binlog.Entry.index fl.entry in
      let tok = fl.tok in
      let submitted = ref false in
      t.process fl.entry
        ~live:(fun () -> tok.live)
        ~on_submitted:(fun () ->
          if (not !submitted) && tok.live then begin
            submitted := true;
            fl.state <- Submitted;
            t.next_to_submit <- index + 1;
            update_gauges t;
            try_submit t;
            pump t
          end)
        ~on_done:(fun ~ok ->
          if tok.live then begin
            Hashtbl.remove t.inflight index;
            if ok then record_done t index fl.entry;
            pump t
          end)
    | _ -> ()

(* The coordinator: dispatch relay-log-head entries to free worker lanes
   while their dependency intervals allow. *)
and pump t =
  if t.running then begin
    let continue = ref true in
    while !continue do
      match Queue.peek_opt t.queue with
      | None -> continue := false
      | Some entry ->
        if busy_workers t >= workers t then continue := false
        else if not (dep_ok t entry) then begin
          (* A free lane is idle because of a dependency stall: count it
             once per head entry so the metric reflects distinct stalls,
             not scheduler wakeups. *)
          let index = Binlog.Entry.index entry in
          if t.last_stall_index <> index then begin
            t.last_stall_index <- index;
            t.dep_stalls <- t.dep_stalls + 1;
            Obs.Metrics.incr t.m_dep_stalls
          end;
          continue := false
        end
        else begin
          ignore (Queue.pop t.queue);
          let index = Binlog.Entry.index entry in
          let tok = { live = true } in
          let fl = { entry; tok; state = Executing } in
          Hashtbl.replace t.inflight index fl;
          let cost =
            match Binlog.Entry.payload entry with
            | Binlog.Entry.Transaction _ -> t.params.Params.apply_per_txn_us
            | _ -> 1.0 (* noop / rotate / config: nothing to execute *)
          in
          ignore
            (Sim.Engine.schedule t.engine ~delay:cost (fun () ->
                 if tok.live then begin
                   fl.state <- Ready;
                   try_submit t
                 end))
        end
    done;
    update_gauges t;
    try_submit t
  end

(* Raft signal: new entries are in the relay log. *)
let signal t entries =
  if t.running then begin
    List.iter
      (fun e ->
        if Binlog.Entry.index e >= t.next_expected then begin
          Queue.add e t.queue;
          t.next_expected <- Binlog.Entry.index e + 1
        end)
      entries;
    update_gauges t;
    ignore
      (Sim.Engine.schedule t.engine ~delay:t.params.Params.applier_wakeup_us (fun () -> pump t))
  end

(* Truncation (a Raft rewind): everything at/above the truncation point
   is gone and must be fenced across all lanes — tokens are invalidated
   so in-flight execute timers, pipeline callbacks and server-side
   row-lock retry loops all become no-ops.  Unsubmitted entries *below*
   the point are still wanted: salvage them back onto the queue (they
   re-execute, a minor timing cost).  Entries below the point already in
   the pipeline keep their tokens — their engine commits are real and
   must still advance the low-water-mark. *)
let handle_truncation t ~from_index =
  let salvaged = ref [] in
  Hashtbl.iter
    (fun index fl ->
      if index >= from_index then fl.tok.live <- false
      else
        match fl.state with
        | Executing | Ready | Submitting ->
          fl.tok.live <- false;
          salvaged := fl.entry :: !salvaged
        | Submitted -> ())
    t.inflight;
  let keep =
    Hashtbl.fold
      (fun index fl acc -> if index < from_index && fl.state = Submitted then (index, fl) :: acc else acc)
      t.inflight []
  in
  Hashtbl.reset t.inflight;
  List.iter (fun (index, fl) -> Hashtbl.replace t.inflight index fl) keep;
  let requeue =
    List.sort (fun a b -> compare (Binlog.Entry.index a) (Binlog.Entry.index b)) !salvaged
  in
  let old_queue = t.queue in
  t.queue <- Queue.create ();
  List.iter (fun e -> Queue.add e t.queue) requeue;
  Queue.iter (fun e -> if Binlog.Entry.index e < from_index then Queue.add e t.queue) old_queue;
  Hashtbl.iter (fun index () -> if index >= from_index then Hashtbl.remove t.done_set index)
    (Hashtbl.copy t.done_set);
  if t.next_expected > from_index then t.next_expected <- from_index;
  if t.applied_index >= from_index then t.applied_index <- from_index - 1;
  if t.next_to_submit > from_index then t.next_to_submit <- from_index;
  t.last_stall_index <- -1;
  update_gauges t;
  if t.running && not (Queue.is_empty t.queue) then
    ignore
      (Sim.Engine.schedule t.engine ~delay:t.params.Params.applier_wakeup_us (fun () -> pump t))

let invalidate_all t =
  Hashtbl.iter (fun _ fl -> fl.tok.live <- false) t.inflight;
  Hashtbl.reset t.inflight;
  Hashtbl.reset t.done_set

(* Start (or restart) the applier with its cursor positioned from the
   engine's recovery point; [backlog] is the relay-log suffix after that
   point. *)
let start t ~from_index ~backlog =
  t.running <- true;
  invalidate_all t;
  Queue.clear t.queue;
  t.applied_index <- from_index - 1;
  t.next_expected <- from_index;
  t.next_to_submit <- from_index;
  t.last_stall_index <- -1;
  signal t backlog

let stop t =
  t.running <- false;
  invalidate_all t;
  Queue.clear t.queue;
  update_gauges t
