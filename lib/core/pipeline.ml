(* The three-stage commit pipeline (§3.4, §3.5).

   Stage 1 (Flush): transactions queued while the flusher is busy are
   flushed together — MySQL group commit.  On the primary the flush
   appends each transaction to the binlog *through Raft*; on a replica it
   writes the applier's local log.  The [flush] function given at
   [create] performs that work for one transaction and returns the Raft
   index it must wait for.

   Stage 2 (Wait for Raft consensus commit): a flushed group blocks until
   Raft's commit marker covers its last index.  On the leader the marker
   advances when the data quorum's acknowledgements arrive; on a follower
   when the leader's piggybacked marker arrives — the same wait in both
   cases, preserving the paper's primary/replica symmetry.

   Stage 3 (Engine commit): the group is durably committed to the storage
   engine and the [finish] function runs for each transaction (returning
   success to the client, releasing row locks).  Groups released by
   consensus while a commit cycle is running are MERGED into the next
   cycle — one fsync ([commit_base_us]) covers them all, up to
   [group_commit_max] transactions — which is how the engine side of
   group commit widens under load (§3.5).

   Groups move through stages strictly in order, mirroring the per-stage
   mutexes in MySQL.

   Memory discipline: a transaction is the embedder's own record, and
   the pipeline keeps nothing else per transaction.  [flush] and
   [finish] are given once at [create], so a submission builds no
   closure.  Submissions accumulate in reusable double-buffered columns
   (the item and its submission time).  The flush stage moves each
   survivor into one growable ring of in-flight items (item, submission
   time, Raft index), and a group is only an index range over that ring,
   kept in a second ring of group columns (range, last index, and when
   it entered its stage).  Stage samples are recorded from those columns
   without boxing a float.  Each flush or commit cycle is one engine
   event carrying a cycle token (the flushing buffer, or the group
   position where the commit cycle ends), so steady state allocates the
   embedder's record per transaction and its two stage events per cycle,
   and nothing per group.  The in-flight count is a maintained counter,
   so a submit costs O(1) however many groups are queued.

   One commit cycle is in flight at a time.  An abort fails what waits
   before stage 3 but not the cycle already committing: that cycle
   finishes its groups, then hands over to the groups released after
   it, even across a [reset].

   Each stage boundary is timestamped so the per-stage latency histograms
   (pipeline.flush_us / consensus_wait_us / engine_commit_us) decompose a
   transaction's commit latency the way Figure 4 does. *)

(* Growable columns reused across flush cycles.  Slots at or past [len]
   hold [vacant]. *)
type 'a accum = {
  mutable acc_items : 'a array;
  mutable acc_submitted : Float.Array.t;
  mutable len : int;
}

type meters = {
  m_txns_committed : Obs.Metrics.counter;
  m_txns_aborted : Obs.Metrics.counter;
  m_groups_formed : Obs.Metrics.counter;
  m_groups_merged : Obs.Metrics.counter; (* commit cycles covering > 1 group *)
  m_queue_depth : Obs.Metrics.gauge;
  m_flush : Obs.Metrics.histogram; (* us, submit -> group flushed *)
  m_consensus_wait : Obs.Metrics.histogram; (* us, flushed -> released *)
  m_engine_commit : Obs.Metrics.histogram; (* us, released -> finished *)
  m_group_size : Obs.Metrics.histogram;
  m_commit_cycle_txns : Obs.Metrics.histogram; (* txns per merged engine cycle *)
}

(* Both rings are addressed by ever-growing positions; a position's slot
   is [pos land (capacity - 1)], capacities being powers of two.

   Items: flushed, not yet finished.  Item position [p] was submitted at
   [submitted.(p)] and waits on Raft index [indexes.(p)].  Live items
   lie in [item_head t, item_tail); a truncation leaves vacant holes in
   that span, which nothing reads.

   Groups: group [g] covers item positions [g_start.(g), g_stop.(g)) and
   waits on Raft index [g_max_index.(g)]; [g_since.(g)] is when it was
   flushed, then when it was released.  Group positions split into
   stages: [g_head, g_taken) the running commit cycle, [g_taken,
   g_released) released by consensus and waiting for stage 3,
   [g_released, g_tail) waiting for consensus.  A group a truncation
   emptied stays in place with an empty range; stage 3 skips it. *)
type 'a t = {
  engine : Sim.Engine.t;
  params : Params.t;
  flush : 'a -> int; (* the Raft index to wait on; negative: flush failed *)
  finish : 'a -> ok:bool -> unit;
  mutable submit_acc : 'a accum; (* incoming submissions (stage-1 accumulator) *)
  mutable flush_acc : 'a accum; (* the batch currently flushing (double buffer) *)
  mutable flushing : bool;
  mutable batch : 'a accum; (* the batch [flush_items] flushes *)
  mutable flush_max_index : int;
  mutable items : 'a array;
  mutable submitted : Float.Array.t;
  mutable indexes : int array;
  mutable item_tail : int;
  mutable open_start : int; (* first item of the group being flushed *)
  mutable g_start : int array;
  mutable g_stop : int array;
  mutable g_max_index : int array;
  mutable g_since : Float.Array.t; (* flush time, then release time once released *)
  mutable g_head : int;
  mutable g_taken : int;
  mutable g_released : int;
  mutable g_tail : int;
  mutable committing : bool;
  mutable queued : int; (* items waiting for consensus or for stage 3 *)
  mutable releasable : int; (* items released and waiting for stage 3 *)
  mutable commit_watermark : int; (* raft commit index *)
  mutable aborted : bool;
  (* Runs the whole flush group's appends as one unit; the embedder
     points it at the log's group-commit scope (one fsync per group
     instead of one per transaction) and at Raft's post-sync notifier. *)
  mutable coalesce : (unit -> unit) -> unit;
  flush_batch : unit -> unit; (* [flush_items] as a thunk, built once *)
  mutable flushed_txns : int;
  mutable groups_formed : int;
  is_primary_path : bool; (* primaries pay the Raft stamping cost *)
  meters : meters;
}

(* The filler of empty item slots.  Never read as an item: every read
   is of a live slot.  It only lets a slot drop its reference, and a
   polymorphic column has no value of its own to fill with. *)
let vacant () : 'a = Obj.magic 0

let make_accum () =
  {
    acc_items = Array.make 64 (vacant ());
    acc_submitted = Float.Array.make 64 0.0;
    len = 0;
  }

let accum_push a item ~now =
  let cap = Array.length a.acc_items in
  if a.len = cap then begin
    let items = Array.make (2 * cap) (vacant ()) in
    Array.blit a.acc_items 0 items 0 a.len;
    a.acc_items <- items;
    let submitted = Float.Array.make (2 * cap) 0.0 in
    Float.Array.blit a.acc_submitted 0 submitted 0 a.len;
    a.acc_submitted <- submitted
  end;
  a.acc_items.(a.len) <- item;
  Float.Array.set a.acc_submitted a.len now;
  a.len <- a.len + 1

let accum_clear a =
  Array.fill a.acc_items 0 a.len (vacant ());
  a.len <- 0

let item_mask t = Array.length t.items - 1

let group_mask t = Array.length t.g_start - 1

(* The oldest live item: the first of the oldest group, or of the group
   being flushed when no group is in flight. *)
let item_head t =
  if t.g_head < t.g_tail then t.g_start.(t.g_head land group_mask t) else t.open_start

let grow_items t =
  let head = item_head t and mask = item_mask t in
  let cap = 2 * Array.length t.items in
  let items = Array.make cap (vacant ()) in
  let submitted = Float.Array.make cap 0.0 and indexes = Array.make cap 0 in
  for p = head to t.item_tail - 1 do
    let i = p land mask and j = p land (cap - 1) in
    items.(j) <- t.items.(i);
    Float.Array.set submitted j (Float.Array.get t.submitted i);
    indexes.(j) <- t.indexes.(i)
  done;
  t.items <- items;
  t.submitted <- submitted;
  t.indexes <- indexes

let grow_groups t =
  let mask = group_mask t in
  let cap = 2 * Array.length t.g_start in
  let g_start = Array.make cap 0 and g_stop = Array.make cap 0 in
  let g_max_index = Array.make cap 0 in
  let g_since = Float.Array.make cap 0.0 in
  for g = t.g_head to t.g_tail - 1 do
    let i = g land mask and j = g land (cap - 1) in
    g_start.(j) <- t.g_start.(i);
    g_stop.(j) <- t.g_stop.(i);
    g_max_index.(j) <- t.g_max_index.(i);
    Float.Array.set g_since j (Float.Array.get t.g_since i)
  done;
  t.g_start <- g_start;
  t.g_stop <- g_stop;
  t.g_max_index <- g_max_index;
  t.g_since <- g_since

(* Fail the items of groups [first, last) in order; returns how many. *)
let fail_groups t first last =
  let count = ref 0 in
  for g = first to last - 1 do
    let gi = g land group_mask t in
    for p = t.g_start.(gi) to t.g_stop.(gi) - 1 do
      let i = p land item_mask t in
      let item = t.items.(i) in
      t.items.(i) <- vacant ();
      t.finish item ~ok:false;
      incr count
    done
  done;
  !count

(* The flushing batch's stage work for one group, run inside the
   embedder's coalesce scope: each survivor moves into the item ring at
   its tail, and a failed flush fails its item at once. *)
let flush_items t =
  let batch = t.batch in
  for k = 0 to batch.len - 1 do
    let item = batch.acc_items.(k) in
    let index = t.flush item in
    if index >= 0 then begin
      if t.item_tail - item_head t = Array.length t.items then grow_items t;
      let i = t.item_tail land item_mask t in
      t.items.(i) <- item;
      Float.Array.set t.submitted i (Float.Array.get batch.acc_submitted k);
      t.indexes.(i) <- index;
      if index > t.flush_max_index then t.flush_max_index <- index;
      t.item_tail <- t.item_tail + 1
    end
    else t.finish item ~ok:false
  done

let create ?metrics ~engine ~params ~is_primary_path ~flush ~finish () =
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let flush_acc = make_accum () in
  let rec t =
    {
      engine;
      params;
      flush;
      finish;
      submit_acc = make_accum ();
      flush_acc;
      flushing = false;
      batch = flush_acc;
      flush_max_index = 0;
      items = Array.make 16 (vacant ());
      submitted = Float.Array.make 16 0.0;
      indexes = Array.make 16 0;
      item_tail = 0;
      open_start = 0;
      g_start = Array.make 8 0;
      g_stop = Array.make 8 0;
      g_max_index = Array.make 8 0;
      g_since = Float.Array.make 8 0.0;
      g_head = 0;
      g_taken = 0;
      g_released = 0;
      g_tail = 0;
      committing = false;
      queued = 0;
      releasable = 0;
      commit_watermark = 0;
      aborted = false;
      coalesce = (fun f -> f ());
      flush_batch = (fun () -> flush_items t);
      flushed_txns = 0;
      groups_formed = 0;
      is_primary_path;
      meters =
        {
          m_txns_committed = Obs.Metrics.counter m "pipeline.txns_committed";
          m_txns_aborted = Obs.Metrics.counter m "pipeline.txns_aborted";
          m_groups_formed = Obs.Metrics.counter m "pipeline.groups_formed";
          m_groups_merged = Obs.Metrics.counter m "pipeline.groups_merged";
          m_queue_depth = Obs.Metrics.gauge m "pipeline.queue_depth";
          m_flush = Obs.Metrics.histogram m "pipeline.flush_us";
          m_consensus_wait = Obs.Metrics.histogram m "pipeline.consensus_wait_us";
          m_engine_commit = Obs.Metrics.histogram m "pipeline.engine_commit_us";
          m_group_size = Obs.Metrics.histogram m "pipeline.group_size";
          m_commit_cycle_txns = Obs.Metrics.histogram m "pipeline.commit_cycle_txns";
        };
    }
  in
  t

let set_coalesce t f = t.coalesce <- f

let groups_formed t = t.groups_formed

let mean_group_size t =
  if t.groups_formed = 0 then 0.0
  else float_of_int t.flushed_txns /. float_of_int t.groups_formed

let in_flight t = t.submit_acc.len + t.queued + if t.flushing then 1 else 0

let update_depth t = Obs.Metrics.set_gauge_int t.meters.m_queue_depth (in_flight t)

(* One engine commit cycle over the released groups waiting at stage 3,
   merged up to [group_commit_max] transactions (always at least one
   group): [commit_base_us] (the engine fsync) is paid once for the
   whole merged set.  The cycle's token is the group position it ends
   at. *)
let rec start_commit_cycle t =
  if (not t.committing) && t.releasable > 0 && not t.aborted then begin
    t.committing <- true;
    let n = ref 0 and groups = ref 0 and taking = ref true in
    while !taking && t.g_taken < t.g_released do
      let gi = t.g_taken land group_mask t in
      let size = t.g_stop.(gi) - t.g_start.(gi) in
      if size = 0 then t.g_taken <- t.g_taken + 1
      else if !n = 0 || !n + size <= Params.group_commit_max then begin
        t.g_taken <- t.g_taken + 1;
        n := !n + size;
        incr groups
      end
      else taking := false
    done;
    let n = !n in
    t.queued <- t.queued - n;
    t.releasable <- t.releasable - n;
    if !groups > 1 then Obs.Metrics.incr t.meters.m_groups_merged;
    Obs.Metrics.record_int t.meters.m_commit_cycle_txns n;
    let cost =
      t.params.Params.commit_base_us
      +. (t.params.Params.commit_per_txn_us *. float_of_int n)
    in
    ignore (Sim.Engine.schedule_call t.engine ~delay:cost commit_cycle_done t t.g_taken)
  end

(* The cycle ending at group position [stop] committed: finish its
   groups in order, then hand stage 3 to the groups released since. *)
and commit_cycle_done t stop =
  let now = Sim.Engine.now t.engine in
  let n = ref 0 in
  while t.g_head < stop do
    let gi = t.g_head land group_mask t in
    let first = t.g_start.(gi) and last = t.g_stop.(gi) in
    if last > first then
      Obs.Metrics.record_elapsed t.meters.m_engine_commit now t.g_since gi;
    for p = first to last - 1 do
      let i = p land item_mask t in
      let item = t.items.(i) in
      t.items.(i) <- vacant ();
      t.finish item ~ok:true
    done;
    n := !n + (last - first);
    t.g_head <- t.g_head + 1
  done;
  Obs.Metrics.add t.meters.m_txns_committed !n;
  t.committing <- false;
  update_depth t;
  start_commit_cycle t

(* Release consensus-committed groups from the wait stage to the commit
   stage, preserving order. *)
let drain_wait t =
  while
    t.g_released < t.g_tail
    && t.g_max_index.(t.g_released land group_mask t) <= t.commit_watermark
  do
    let gi = t.g_released land group_mask t in
    let size = t.g_stop.(gi) - t.g_start.(gi) in
    (* a group a truncation emptied has nothing left to commit *)
    if size > 0 then begin
      let now = Sim.Engine.now t.engine in
      Obs.Metrics.record_elapsed t.meters.m_consensus_wait now t.g_since gi;
      Float.Array.set t.g_since gi now;
      t.releasable <- t.releasable + size
    end;
    t.g_released <- t.g_released + 1
  done;
  start_commit_cycle t

let notify_commit_index t index =
  if index > t.commit_watermark then begin
    t.commit_watermark <- index;
    drain_wait t
  end

let push_group t ~stop now =
  if t.g_tail - t.g_head = Array.length t.g_start then grow_groups t;
  let gi = t.g_tail land group_mask t in
  t.g_start.(gi) <- t.open_start;
  t.g_stop.(gi) <- stop;
  t.g_max_index.(gi) <- t.flush_max_index;
  Float.Array.set t.g_since gi now;
  t.g_tail <- t.g_tail + 1

(* A flush cycle's token is the buffer it flushes. *)
let rec start_flush_cycle t =
  if (not t.flushing) && t.submit_acc.len > 0 && not t.aborted then begin
    t.flushing <- true;
    (* Double buffer: the submit accumulator becomes this cycle's batch;
       new submissions land in the (cleared) other buffer. *)
    let batch = t.submit_acc in
    t.submit_acc <- t.flush_acc;
    t.flush_acc <- batch;
    let stamp = if t.is_primary_path then t.params.Params.raft_stamp_us else 0.0 in
    let cost =
      t.params.Params.flush_base_us
      +. ((t.params.Params.flush_per_txn_us +. stamp) *. float_of_int batch.len)
    in
    ignore (Sim.Engine.schedule_call t.engine ~delay:cost flush_cycle_done t batch)
  end

(* [batch] is no longer [flush_acc] when a [reset] came between the
   abort and this event: the batch belongs to the aborted run, and the
   pipeline already flushes into another buffer. *)
and flush_cycle_done t batch =
  if t.aborted || batch != t.flush_acc then begin
    for i = 0 to batch.len - 1 do
      t.finish batch.acc_items.(i) ~ok:false
    done;
    accum_clear batch
  end
  else begin
    t.batch <- batch;
    t.flush_max_index <- 0;
    t.open_start <- t.item_tail;
    t.coalesce t.flush_batch;
    let first = t.open_start and stop = t.item_tail in
    let flushed = stop - first in
    if flushed > 0 then begin
      let now = Sim.Engine.now t.engine in
      for p = first to stop - 1 do
        Obs.Metrics.record_elapsed t.meters.m_flush now t.submitted (p land item_mask t)
      done;
      Obs.Metrics.record_int t.meters.m_group_size flushed;
      t.flushed_txns <- t.flushed_txns + flushed;
      t.groups_formed <- t.groups_formed + 1;
      t.queued <- t.queued + flushed;
      Obs.Metrics.incr t.meters.m_groups_formed;
      push_group t ~stop now;
      t.open_start <- stop;
      drain_wait t
    end;
    accum_clear batch;
    t.flushing <- false;
    start_flush_cycle t
  end

let submit t item =
  if t.aborted then t.finish item ~ok:false
  else begin
    accum_push t.submit_acc item ~now:(Sim.Engine.now t.engine);
    update_depth t;
    start_flush_cycle t
  end

(* Abort everything in flight before stage 3: demotion step 1 (§3.3) —
   the prepared transactions behind these items are rolled back by the
   caller.  Submissions fail first, then the groups waiting for
   consensus, then those released to stage 3.  A running commit cycle
   keeps its groups. *)
let abort_all t =
  t.aborted <- true;
  let count = ref 0 in
  for i = 0 to t.submit_acc.len - 1 do
    t.finish t.submit_acc.acc_items.(i) ~ok:false;
    incr count
  done;
  accum_clear t.submit_acc;
  count := !count + fail_groups t t.g_released t.g_tail;
  count := !count + fail_groups t t.g_taken t.g_released;
  t.g_tail <- t.g_taken;
  t.g_released <- t.g_taken;
  t.queued <- 0;
  t.releasable <- 0;
  Obs.Metrics.add t.meters.m_txns_aborted !count;
  update_depth t;
  !count

(* Raft truncated the log from [from_index]: a follower dropped a suffix
   that never reached consensus.  Flushed items at or past that point
   wait on entries that no longer exist, and a group spanning the point
   would wait on an index the log may never reach again — with the
   client stopped, or a new leader whose promotion waits on this very
   applier, forever.  Fail those items, and re-bound each group that
   held one on the items it keeps, compacted in place at the front of
   its range; groups wholly below the point are not touched.  Committed
   groups cannot be truncated. *)
let truncate t ~from_index =
  let failed = ref 0 in
  for g = t.g_released to t.g_tail - 1 do
    let gi = g land group_mask t in
    if t.g_max_index.(gi) >= from_index then begin
      let first = t.g_start.(gi) and last = t.g_stop.(gi) in
      let kept = ref first and max_index = ref 0 in
      for p = first to last - 1 do
        let i = p land item_mask t in
        let index = t.indexes.(i) in
        if index >= from_index then begin
          let item = t.items.(i) in
          t.items.(i) <- vacant ();
          t.finish item ~ok:false;
          incr failed
        end
        else begin
          let k = !kept land item_mask t in
          if k <> i then begin
            t.items.(k) <- t.items.(i);
            t.items.(i) <- vacant ();
            t.indexes.(k) <- index;
            Float.Array.set t.submitted k (Float.Array.get t.submitted i)
          end;
          incr kept;
          if index > !max_index then max_index := index
        end
      done;
      t.g_stop.(gi) <- !kept;
      t.g_max_index.(gi) <- !max_index
    end
  done;
  if !failed > 0 then begin
    t.queued <- t.queued - !failed;
    Obs.Metrics.add t.meters.m_txns_aborted !failed;
    update_depth t;
    drain_wait t
  end

(* Re-arm after a role change (the pipeline object survives demote +
   promote cycles).  A flush cycle still pending belongs to the aborted
   run: it keeps the buffer it holds, and the pipeline flushes into a
   fresh one, so that event fails its items and cannot touch (or clear)
   submissions made after the reset.  A commit cycle still pending
   stays the one in flight: groups released after the reset wait for it
   to finish, so engine commits keep their order. *)
let reset t =
  if t.flushing then t.flush_acc <- make_accum ();
  t.aborted <- false;
  t.flushing <- false;
  t.commit_watermark <- 0
