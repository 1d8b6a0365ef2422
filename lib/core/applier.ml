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

   Fencing: every dispatched entry's in-flight record carries a liveness
   flag.  stop/start clear every flag; log truncation clears only those
   at or above the truncation point (plus unsubmitted entries below it,
   which are salvaged back onto the queue to re-execute) while entries
   already submitted to the pipeline below the point stay live — their
   commits are real and must still advance the mark.  The record itself
   is the [ticket] handed to [process], so the server can abandon
   row-lock retry loops whose entry has been truncated away, and report
   submission and completion without a closure per entry.

   Cost: lane occupancy and the Submitting window are two exact
   counters kept in step with every state change, so dispatch, gauge
   updates and submission are O(1) in the number of in-flight entries
   (which, with the pipeline's consensus wait, runs to thousands on a
   loaded replica).  Only the rare paths rebuild them: truncation with
   one fold over the table, start and stop by emptying it. *)

type lane_state =
  | Executing (* worker lane busy simulating apply_per_txn_us *)
  | Ready (* executed; parked until its turn to submit *)
  | Submitting (* process called; prepare may be retrying a row lock *)
  | Submitted (* in the pipeline; lane released; awaiting engine commit *)
  | Finished (* done before its submission was reported (idempotent
                replay, give-up, abort); awaiting [submitted] *)
  | Retired (* done and submitted: every later callback is a no-op *)

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  mutable running : bool;
  mutable queue : Binlog.Entry.t Queue.t; (* relay-log order, not yet dispatched *)
  inflight : (int, ticket) Hashtbl.t; (* index -> dispatched, not yet done *)
  mutable held : int; (* entries in [inflight] holding a lane (not Submitted) *)
  mutable submitting : int; (* entries in [inflight] in the Submitting window *)
  done_set : (int, unit) Hashtbl.t; (* committed above the low-water-mark *)
  mutable applied_index : int; (* lwm of engine-committed indexes *)
  mutable next_expected : int; (* next log index to enqueue *)
  mutable next_to_submit : int; (* submission cursor (log order) *)
  mutable applied_txns : int;
  mutable commit_index : int; (* last consensus commit index seen, for lag *)
  mutable dep_stalls : int;
  mutable last_stall_index : int; (* dedup stall counting per head entry *)
  process : Binlog.Entry.t -> ticket -> unit;
    (* prepare + pipeline submission; reports through {!submitted} and
       {!finished} and checks {!live} in retry loops *)
  m_applied : Obs.Metrics.counter;
  m_queue_depth : Obs.Metrics.gauge;
  m_workers_busy : Obs.Metrics.gauge;
  m_dep_stalls : Obs.Metrics.counter;
  m_lag : Obs.Metrics.gauge;
  mutable wake : unit -> unit; (* [pump] as a thunk, built once *)
}

(* One dispatched entry: its lane state, its fencing flag, and the
   applier it reports back to. *)
and ticket = {
  owner : t;
  entry : Binlog.Entry.t;
  index : int;
  mutable live : bool;
  mutable state : lane_state;
}

let applied_index t = t.applied_index

let applied_txns t = t.applied_txns

let dep_stalls t = t.dep_stalls

let is_running t = t.running

let workers t = max 1 t.params.Params.applier_workers

(* Lanes are held from dispatch until [submitted] (a worker owns its
   transaction through execution, parking and prepare, like a real MTS
   worker thread); submitted entries wait in the pipeline lane-free. *)
let busy_workers t = t.held

(* Recount both counters from the table (truncation only). *)
let recount t =
  let held, submitting =
    Hashtbl.fold
      (fun _ tk (h, s) ->
        match tk.state with
        | Executing | Ready -> (h + 1, s)
        | Submitting -> (h + 1, s + 1)
        | Submitted | Finished | Retired -> (h, s))
      t.inflight (0, 0)
  in
  t.held <- held;
  t.submitting <- submitting

let update_gauges t =
  Obs.Metrics.set_gauge_int t.m_queue_depth (Queue.length t.queue);
  Obs.Metrics.set_gauge_int t.m_workers_busy t.held

let update_lag t =
  Obs.Metrics.set_gauge_int t.m_lag (max 0 (t.commit_index - t.applied_index))

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
  match Binlog.Entry.payload entry with
  | Binlog.Entry.Transaction _ ->
    let last_committed = Binlog.Entry.last_committed entry in
    if last_committed >= 0 then last_committed <= t.applied_index
    else Binlog.Entry.index entry = t.next_to_submit
  | _ -> Binlog.Entry.index entry = t.next_to_submit

let record_done t index entry =
  if index > t.applied_index && not (Hashtbl.mem t.done_set index) then begin
    (* In-order completion, the common case, moves the mark directly;
       only a completion above a gap is parked in [done_set]. *)
    if index = t.applied_index + 1 then t.applied_index <- index
    else Hashtbl.replace t.done_set index ();
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

let live tk = tk.live

(* Submit ready entries to the commit pipeline strictly in log order.
   At most one entry is in the Submitting window at a time: [submitted]
   is reported synchronously unless prepare hits a row-lock conflict, so
   the window is exactly the conflict-retry loop — later entries must
   not slip into the pipeline ahead of it (commit order), which also
   means a retrying prepare head-of-line-blocks submission just like the
   serial applier did. *)
let rec try_submit t =
  if t.running && t.submitting = 0 then
    match Hashtbl.find t.inflight t.next_to_submit with
    | tk when tk.state = Ready ->
      tk.state <- Submitting;
      t.submitting <- t.submitting + 1;
      t.process tk.entry tk
    | _ -> ()
    | exception Not_found -> ()

(* The entry's commit order is pinned: release its lane and let the
   next entry submit.  Fires at most once per ticket. *)
and submitted tk =
  if tk.live then
    match tk.state with
    | Submitting ->
      let t = tk.owner in
      tk.state <- Submitted;
      t.held <- t.held - 1;
      t.submitting <- t.submitting - 1;
      advance_submission t tk
    | Finished ->
      tk.state <- Retired;
      advance_submission tk.owner tk
    | Executing | Ready | Submitted | Retired -> ()

and advance_submission t tk =
  t.next_to_submit <- tk.index + 1;
  update_gauges t;
  try_submit t;
  pump t

(* Engine commit (or terminal failure) of the entry.  On the
   idempotent-replay and give-up paths this runs before [submitted], so
   the entry still holds its lane and its Submitting slot. *)
and finished tk ~ok =
  if tk.live then begin
    let t = tk.owner in
    let report =
      match tk.state with
      | Submitting ->
        tk.state <- Finished;
        t.held <- t.held - 1;
        t.submitting <- t.submitting - 1;
        true
      | Submitted ->
        tk.state <- Retired;
        true
      | Executing | Ready | Finished | Retired -> false
    in
    if report then begin
      Hashtbl.remove t.inflight tk.index;
      if ok then record_done t tk.index tk.entry;
      pump t
    end
  end

(* The coordinator: dispatch relay-log-head entries to free worker lanes
   while their dependency intervals allow. *)
and pump t =
  if t.running then begin
    let continue = ref true in
    while !continue do
      match Queue.peek_opt t.queue with
      | None -> continue := false
      | Some entry ->
        if t.held >= workers t then continue := false
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
          let tk = { owner = t; entry; index; live = true; state = Executing } in
          Hashtbl.replace t.inflight index tk;
          t.held <- t.held + 1;
          let cost =
            match Binlog.Entry.payload entry with
            | Binlog.Entry.Transaction _ -> t.params.Params.apply_per_txn_us
            | _ -> 1.0 (* noop / rotate / config: nothing to execute *)
          in
          ignore (Sim.Engine.schedule t.engine ~delay:cost (fun () -> executed tk))
        end
    done;
    update_gauges t;
    try_submit t
  end

and executed tk =
  if tk.live then begin
    tk.state <- Ready;
    try_submit tk.owner
  end

let create ?metrics ~engine ~params ~process () =
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    {
      engine;
      params;
      running = false;
      queue = Queue.create ();
      inflight = Hashtbl.create 64;
      held = 0;
      submitting = 0;
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
      wake = ignore;
    }
  in
  t.wake <- (fun () -> pump t);
  t

(* Raft signal: [entries.(pos) .. entries.(pos + len - 1)] are new in
   the relay log. *)
let signal t entries ~pos ~len =
  if t.running then begin
    for i = pos to pos + len - 1 do
      let e = entries.(i) in
      if Binlog.Entry.index e >= t.next_expected then begin
        Queue.add e t.queue;
        t.next_expected <- Binlog.Entry.index e + 1
      end
    done;
    update_gauges t;
    ignore (Sim.Engine.schedule t.engine ~delay:Params.applier_wakeup_us t.wake)
  end

(* Truncation (a Raft rewind): everything at/above the truncation point
   is gone and must be fenced across all lanes — liveness flags are
   cleared so in-flight execute timers, pipeline callbacks and
   server-side row-lock retry loops all become no-ops.  Unsubmitted
   entries *below* the point are still wanted: salvage them back onto
   the queue (they re-execute, a minor timing cost).  Entries below the
   point already in the pipeline stay live — their engine commits are
   real and must still advance the low-water-mark. *)
let handle_truncation t ~from_index =
  let salvaged = ref [] in
  let keep = ref [] in
  Hashtbl.iter
    (fun index tk ->
      if index >= from_index then tk.live <- false
      else
        match tk.state with
        | Executing | Ready | Submitting ->
          tk.live <- false;
          salvaged := tk.entry :: !salvaged
        | Submitted | Finished | Retired -> keep := (index, tk) :: !keep)
    t.inflight;
  Hashtbl.reset t.inflight;
  List.iter (fun (index, tk) -> Hashtbl.replace t.inflight index tk) !keep;
  recount t;
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
  update_lag t;
  if t.running && not (Queue.is_empty t.queue) then
    ignore (Sim.Engine.schedule t.engine ~delay:Params.applier_wakeup_us t.wake)

let invalidate_all t =
  Hashtbl.iter (fun _ tk -> tk.live <- false) t.inflight;
  Hashtbl.reset t.inflight;
  Hashtbl.reset t.done_set;
  t.held <- 0;
  t.submitting <- 0

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
  update_lag t;
  let backlog = Array.of_list backlog in
  signal t backlog ~pos:0 ~len:(Array.length backlog)

let stop t =
  t.running <- false;
  invalidate_all t;
  Queue.clear t.queue;
  update_gauges t
