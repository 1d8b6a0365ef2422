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
   commits: a completion above a gap leaves its slot marked committed,
   and the mark only advances while contiguous.  It remains what
   promotion step 2 waits on and what positions the cursor after a role
   change.

   Memory: one growable ring, indexed by log index, spans the relay-log
   indexes [applied_index+1, next_expected): every entry signalled and
   not yet behind the mark.  Each slot holds the entry, its lane state
   and, once dispatched, its ticket.  The undispatched entries are the
   slots from the dispatch cursor to [next_expected], so the ring is the
   relay-log queue, the in-flight table and the set of completions above
   a gap at once.  A dispatched entry allocates only its ticket (which
   also carries the prepared transaction, so it is the server's pipeline
   item) and its execute event, a [schedule_call] of [executed].

   Fencing: a ticket is live while its slot holds it.  stop/start clear
   every slot; log truncation clears those at or above the truncation
   point and turns unsubmitted entries below it back into undispatched
   ones (to re-execute, under a new ticket), while entries already
   submitted to the pipeline below the point keep theirs — their commits
   are real and must still advance the mark.  A call on a ticket its
   slot no longer holds is a no-op, so the server can abandon row-lock
   retry loops whose entry has been truncated away, and report
   submission and completion without a closure per entry.

   Cost: lane occupancy and the Submitting window are two exact
   counters kept in step with every state change, so dispatch, gauge
   updates and submission are O(1) in the number of in-flight entries
   (which, with the pipeline's consensus wait, runs to thousands on a
   loaded replica).  Truncation walks the ring's span once; stop and
   start clear it. *)

type lane_state =
  | Vacant (* no entry here: behind the mark, or cleared by stop, start or truncation *)
  | Queued (* in the relay log, not yet dispatched *)
  | Executing (* worker lane busy simulating apply_per_txn_us *)
  | Ready (* executed; parked until its turn to submit *)
  | Submitting (* process called; prepare may be retrying a row lock *)
  | Submitted (* in the pipeline; lane released; awaiting engine commit *)
  | Committed (* done: in the engine, waiting for the mark to pass it *)
  | Failed (* terminal failure: holds the mark until a restart *)

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  mutable running : bool;
  (* The ring: slot [index land (capacity - 1)] for every index in
     [applied_index+1, next_expected); capacities are powers of two. *)
  mutable entries : Binlog.Entry.t array;
  mutable states : lane_state array;
  mutable tickets : ticket array; (* [vacant_ticket] until dispatched *)
  mutable held : int; (* dispatched entries holding a lane (not Submitted) *)
  mutable submitting : int; (* entries in the Submitting window *)
  mutable applied_index : int; (* lwm of engine-committed indexes *)
  mutable next_expected : int; (* next log index to enqueue *)
  mutable next_dispatch : int; (* dispatch cursor: the relay-log head *)
  mutable next_to_submit : int; (* submission cursor (log order) *)
  (* The entry that finished before its submission was reported (at most
     one: only the entry at [next_to_submit] can be Submitting); the
     mark may already have passed its slot. *)
  mutable finished_early : ticket;
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

(* One dispatched entry: the applier it reports back to, the entry, and
   the transaction the server prepared for it. *)
and ticket = {
  owner : t;
  entry : Binlog.Entry.t;
  mutable prepared : Storage.Engine.prepared;
}

(* The filler of slots without a ticket and of [finished_early] when no
   entry finished early.  Only ever compared by identity with a real
   ticket, never read. *)
let vacant_ticket : ticket = Obj.magic 0

let applied_index t = t.applied_index

let applied_txns t = t.applied_txns

let dep_stalls t = t.dep_stalls

let is_running t = t.running

let workers t = max 1 t.params.Params.applier_workers

let entry tk = tk.entry

let prepared tk = tk.prepared

let set_prepared tk p = tk.prepared <- p

(* Lanes are held from dispatch until [submitted] (a worker owns its
   transaction through execution, parking and prepare, like a real MTS
   worker thread); submitted entries wait in the pipeline lane-free. *)
let busy_workers t = t.held

let slot t index = index land (Array.length t.states - 1)

(* The slot of a ticket its ring still holds, or -1 once it is fenced
   (or its index passed behind the mark). *)
let slot_of t tk =
  let index = Binlog.Entry.index tk.entry in
  if index > t.applied_index && index < t.next_expected then begin
    let i = slot t index in
    if t.tickets.(i) == tk then i else -1
  end
  else -1

let live tk =
  let t = tk.owner in
  slot_of t tk >= 0 || tk == t.finished_early

let clear_slot t i =
  t.entries.(i) <- Binlog.Log_store.absent;
  t.states.(i) <- Vacant;
  t.tickets.(i) <- vacant_ticket

(* Make room for index [upto]: double the ring until its span fits. *)
let grow t ~upto =
  let cap = ref (Array.length t.states) in
  while upto - t.applied_index > !cap do
    cap := 2 * !cap
  done;
  let cap = !cap in
  if cap > Array.length t.states then begin
    let entries = Array.make cap Binlog.Log_store.absent in
    let states = Array.make cap Vacant and tickets = Array.make cap vacant_ticket in
    for index = t.applied_index + 1 to t.next_expected - 1 do
      let i = slot t index and j = index land (cap - 1) in
      entries.(j) <- t.entries.(i);
      states.(j) <- t.states.(i);
      tickets.(j) <- t.tickets.(i)
    done;
    t.entries <- entries;
    t.states <- states;
    t.tickets <- tickets
  end

(* Indexes of the entries the ring's slots hold, in slot order. *)
let ring_indexes t =
  let acc = ref [] in
  for i = Array.length t.states - 1 downto 0 do
    if t.states.(i) <> Vacant then acc := Binlog.Entry.index t.entries.(i) :: !acc
  done;
  !acc

let next_expected t = t.next_expected

let update_gauges t =
  Obs.Metrics.set_gauge_int t.m_queue_depth (t.next_expected - t.next_dispatch);
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

(* The entry in slot [i] committed: in-order completion, the common
   case, moves the mark directly; a completion above a gap stays marked
   in its slot until the mark reaches it. *)
let record_done t i entry =
  t.states.(i) <- Committed;
  while
    t.applied_index + 1 < t.next_expected
    && t.states.(slot t (t.applied_index + 1)) = Committed
  do
    clear_slot t (slot t (t.applied_index + 1));
    t.applied_index <- t.applied_index + 1
  done;
  if Binlog.Entry.is_transaction entry then begin
    t.applied_txns <- t.applied_txns + 1;
    Obs.Metrics.incr t.m_applied
  end;
  update_lag t

(* Submit ready entries to the commit pipeline strictly in log order.
   At most one entry is in the Submitting window at a time: [submitted]
   is reported synchronously unless prepare hits a row-lock conflict, so
   the window is exactly the conflict-retry loop — later entries must
   not slip into the pipeline ahead of it (commit order), which also
   means a retrying prepare head-of-line-blocks submission just like the
   serial applier did. *)
let rec try_submit t =
  let index = t.next_to_submit in
  if t.running && t.submitting = 0 && index > t.applied_index && index < t.next_expected
  then begin
    let i = slot t index in
    if t.states.(i) = Ready then begin
      t.states.(i) <- Submitting;
      t.submitting <- t.submitting + 1;
      t.process t.entries.(i) t.tickets.(i)
    end
  end

(* The entry's commit order is pinned: release its lane and let the
   next entry submit.  Fires at most once per ticket. *)
and submitted tk =
  let t = tk.owner in
  if tk == t.finished_early then begin
    t.finished_early <- vacant_ticket;
    advance_submission t tk
  end
  else begin
    let i = slot_of t tk in
    if i >= 0 && t.states.(i) = Submitting then begin
      t.states.(i) <- Submitted;
      t.held <- t.held - 1;
      t.submitting <- t.submitting - 1;
      advance_submission t tk
    end
  end

and advance_submission t tk =
  t.next_to_submit <- Binlog.Entry.index tk.entry + 1;
  update_gauges t;
  try_submit t;
  pump t

(* Engine commit (or terminal failure) of the entry.  On the
   idempotent-replay and give-up paths this runs before [submitted], so
   the entry still holds its lane and its Submitting slot. *)
and finished tk ~ok =
  let t = tk.owner in
  let i = slot_of t tk in
  if i >= 0 then begin
    let report =
      match t.states.(i) with
      | Submitting ->
        t.held <- t.held - 1;
        t.submitting <- t.submitting - 1;
        t.finished_early <- tk;
        true
      | Submitted -> true
      | Vacant | Queued | Executing | Ready | Committed | Failed -> false
    in
    if report then begin
      if ok then record_done t i tk.entry else t.states.(i) <- Failed;
      pump t
    end
  end

(* The coordinator: dispatch relay-log-head entries to free worker lanes
   while their dependency intervals allow. *)
and pump t =
  if t.running then begin
    let continue = ref true in
    while !continue && t.next_dispatch < t.next_expected do
      let index = t.next_dispatch in
      let i = slot t index in
      let entry = t.entries.(i) in
      if t.held >= workers t || t.states.(i) <> Queued then continue := false
      else if not (dep_ok t entry) then begin
        (* A free lane is idle because of a dependency stall: count it
           once per head entry so the metric reflects distinct stalls,
           not scheduler wakeups. *)
        if t.last_stall_index <> index then begin
          t.last_stall_index <- index;
          t.dep_stalls <- t.dep_stalls + 1;
          Obs.Metrics.incr t.m_dep_stalls
        end;
        continue := false
      end
      else begin
        t.next_dispatch <- index + 1;
        let tk = { owner = t; entry; prepared = Storage.Engine.unprepared } in
        t.tickets.(i) <- tk;
        t.states.(i) <- Executing;
        t.held <- t.held + 1;
        let cost =
          match Binlog.Entry.payload entry with
          | Binlog.Entry.Transaction _ -> t.params.Params.apply_per_txn_us
          | _ -> 1.0 (* noop / rotate / config: nothing to execute *)
        in
        ignore (Sim.Engine.schedule_call t.engine ~delay:cost executed t tk)
      end
    done;
    update_gauges t;
    try_submit t
  end

and executed t tk =
  let i = slot_of t tk in
  if i >= 0 then begin
    t.states.(i) <- Ready;
    try_submit t
  end

let create ?metrics ~engine ~params ~process () =
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    {
      engine;
      params;
      running = false;
      entries = Array.make 16 Binlog.Log_store.absent;
      states = Array.make 16 Vacant;
      tickets = Array.make 16 vacant_ticket;
      held = 0;
      submitting = 0;
      applied_index = 0;
      next_expected = 1;
      next_dispatch = 1;
      next_to_submit = 1;
      finished_early = vacant_ticket;
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
    for k = pos to pos + len - 1 do
      let e = entries.(k) in
      let index = Binlog.Entry.index e in
      if index >= t.next_expected then begin
        if index - t.applied_index > Array.length t.states then grow t ~upto:index;
        let i = slot t index in
        t.entries.(i) <- e;
        t.states.(i) <- Queued;
        t.next_expected <- index + 1
      end
    done;
    update_gauges t;
    ignore (Sim.Engine.schedule t.engine ~delay:Params.applier_wakeup_us t.wake)
  end

(* Truncation (a Raft rewind): everything at/above the truncation point
   is gone and must be fenced across all lanes — its slots are cleared,
   so in-flight execute timers, pipeline callbacks and server-side
   row-lock retry loops all become no-ops.  Unsubmitted entries *below*
   the point are still wanted: they go back to undispatched (they
   re-execute under a new ticket, a minor timing cost).  Entries below
   the point already in the pipeline keep their tickets — their engine
   commits are real and must still advance the low-water-mark.  Every
   lane-holding entry is fenced or requeued, so no lane stays held. *)
let handle_truncation t ~from_index =
  let requeue_from = ref (min t.next_dispatch from_index) in
  for index = max (t.applied_index + 1) from_index to t.next_expected - 1 do
    clear_slot t (slot t index)
  done;
  for index = t.applied_index + 1 to min from_index t.next_expected - 1 do
    let i = slot t index in
    match t.states.(i) with
    | Executing | Ready | Submitting ->
      t.states.(i) <- Queued;
      t.tickets.(i) <- vacant_ticket;
      if index < !requeue_from then requeue_from := index
    | Vacant | Queued | Submitted | Committed | Failed -> ()
  done;
  let early = t.finished_early in
  if early != vacant_ticket && Binlog.Entry.index early.entry >= from_index then
    t.finished_early <- vacant_ticket;
  t.held <- 0;
  t.submitting <- 0;
  t.next_dispatch <- !requeue_from;
  if t.next_expected > from_index then t.next_expected <- from_index;
  if t.applied_index >= from_index then t.applied_index <- from_index - 1;
  if t.next_to_submit > from_index then t.next_to_submit <- from_index;
  t.last_stall_index <- -1;
  update_gauges t;
  update_lag t;
  if t.running && t.next_dispatch < t.next_expected then
    ignore (Sim.Engine.schedule t.engine ~delay:Params.applier_wakeup_us t.wake)

(* Fence every ticket and empty the ring. *)
let invalidate_all t =
  for index = t.applied_index + 1 to t.next_expected - 1 do
    clear_slot t (slot t index)
  done;
  t.finished_early <- vacant_ticket;
  t.next_dispatch <- t.next_expected;
  t.held <- 0;
  t.submitting <- 0

(* Start (or restart) the applier with its cursor positioned from the
   engine's recovery point; [backlog] is the relay-log suffix after that
   point. *)
let start t ~from_index ~backlog =
  t.running <- true;
  invalidate_all t;
  t.applied_index <- from_index - 1;
  t.next_expected <- from_index;
  t.next_dispatch <- from_index;
  t.next_to_submit <- from_index;
  t.last_stall_index <- -1;
  update_lag t;
  let backlog = Array.of_list backlog in
  signal t backlog ~pos:0 ~len:(Array.length backlog)

let stop t =
  t.running <- false;
  invalidate_all t;
  update_gauges t
