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
   closure.  The flush stage accumulates submissions into reusable
   double-buffered columns (the item, its submission time, and once
   flushed its Raft index), and each flushed group takes right-sized
   copies of the three columns.  Steady state allocates the embedder's
   record per transaction, and per group three arrays, a group record
   and the closure of each stage's engine event.  The
   in-flight count is a maintained counter, so a submit costs O(1)
   however many groups are queued.

   Each stage boundary is timestamped so the per-stage latency histograms
   (pipeline.flush_us / consensus_wait_us / engine_commit_us and the
   end-to-end pipeline.txn_total_us) decompose a transaction's commit
   latency the way Figure 4 does. *)

(* A flushed group, as three parallel columns: item [i] was submitted at
   [submitted.(i)] and waits on Raft index [indexes.(i)]. *)
type 'a group = {
  mutable items : 'a array; (* only a log truncation shrinks them *)
  mutable indexes : int array;
  mutable submitted : Float.Array.t;
  mutable group_max_index : int;
  flushed_at : float;
  mutable released_at : float; (* when consensus released it to stage 3 *)
}

(* Growable columns reused across flush cycles; [indexes] is filled at
   flush time.  Slots at or past [len] hold [vacant]. *)
type 'a accum = {
  mutable acc_items : 'a array;
  mutable acc_submitted : Float.Array.t;
  mutable acc_indexes : int array;
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
  m_txn_total : Obs.Metrics.histogram; (* us, submit -> finished *)
  m_group_size : Obs.Metrics.histogram;
  m_commit_cycle_txns : Obs.Metrics.histogram; (* txns per merged engine cycle *)
}

type 'a t = {
  engine : Sim.Engine.t;
  params : Params.t;
  flush : 'a -> int; (* the Raft index to wait on; negative: flush failed *)
  finish : 'a -> ok:bool -> unit;
  mutable submit_acc : 'a accum; (* incoming submissions (stage-1 accumulator) *)
  mutable flush_acc : 'a accum; (* the batch currently flushing (double buffer) *)
  mutable flushing : bool;
  (* The flush cycle inside the coalesce scope: [flush_items] flushes
     the first [batch_len] items of [batch] and counts the survivors. *)
  mutable batch : 'a accum;
  mutable batch_len : int;
  mutable flushed : int;
  mutable flush_max_index : int;
  wait_queue : 'a group Queue.t;
  commit_queue : 'a group Queue.t;
  mutable committing : bool;
  mutable queued : int; (* items in the wait and commit queues *)
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

(* The filler of empty accumulator slots.  Never read as an item: every
   read is below [len].  It only lets a slot drop its reference, and a
   polymorphic column has no value of its own to fill with. *)
let vacant () : 'a = Obj.magic 0

let make_accum () =
  {
    acc_items = Array.make 64 (vacant ());
    acc_submitted = Float.Array.make 64 0.0;
    acc_indexes = Array.make 64 0;
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
    a.acc_submitted <- submitted;
    a.acc_indexes <- Array.make (2 * cap) 0
  end;
  a.acc_items.(a.len) <- item;
  Float.Array.set a.acc_submitted a.len now;
  a.len <- a.len + 1

let accum_clear a =
  Array.fill a.acc_items 0 a.len (vacant ());
  a.len <- 0

(* Compact the survivors of a flush cycle: the flushing batch's stage
   work for one group, run inside the embedder's coalesce scope.  A
   failed flush fails its item at once. *)
let flush_items t =
  let batch = t.batch in
  for i = 0 to t.batch_len - 1 do
    let item = batch.acc_items.(i) in
    let index = t.flush item in
    if index >= 0 then begin
      let k = t.flushed in
      batch.acc_items.(k) <- item;
      Float.Array.set batch.acc_submitted k (Float.Array.get batch.acc_submitted i);
      batch.acc_indexes.(k) <- index;
      if index > t.flush_max_index then t.flush_max_index <- index;
      t.flushed <- k + 1
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
      batch_len = 0;
      flushed = 0;
      flush_max_index = 0;
      wait_queue = Queue.create ();
      commit_queue = Queue.create ();
      committing = false;
      queued = 0;
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
          m_txn_total = Obs.Metrics.histogram m "pipeline.txn_total_us";
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

(* Take released groups off the commit queue, up to [group_commit_max]
   transactions (always at least one group). *)
let rec take_groups t acc n =
  match Queue.peek_opt t.commit_queue with
  | Some g when n = 0 || n + Array.length g.items <= Params.group_commit_max ->
    ignore (Queue.pop t.commit_queue);
    take_groups t (g :: acc) (n + Array.length g.items)
  | _ -> (List.rev acc, n)

let finish_group t now g =
  Obs.Metrics.record t.meters.m_engine_commit (now -. g.released_at);
  for i = 0 to Array.length g.items - 1 do
    t.finish g.items.(i) ~ok:true;
    Obs.Metrics.record t.meters.m_txn_total (now -. Float.Array.get g.submitted i)
  done

(* One engine commit cycle over every released group waiting at stage 3,
   merged up to [group_commit_max] transactions: [commit_base_us] (the
   engine fsync) is paid once for the whole merged set. *)
let rec start_commit_cycle t =
  if (not t.committing) && (not (Queue.is_empty t.commit_queue)) && not t.aborted
  then begin
    t.committing <- true;
    let groups, n = take_groups t [] 0 in
    t.queued <- t.queued - n;
    (match groups with _ :: _ :: _ -> Obs.Metrics.incr t.meters.m_groups_merged | _ -> ());
    Obs.Metrics.record t.meters.m_commit_cycle_txns (float_of_int n);
    let cost =
      t.params.Params.commit_base_us
      +. (t.params.Params.commit_per_txn_us *. float_of_int n)
    in
    ignore
      (Sim.Engine.schedule t.engine ~delay:cost (fun () -> commit_cycle_done t groups n))
  end

and commit_cycle_done t groups n =
  let now = Sim.Engine.now t.engine in
  List.iter (finish_group t now) groups;
  Obs.Metrics.add t.meters.m_txns_committed n;
  t.committing <- false;
  update_depth t;
  start_commit_cycle t

(* Move consensus-committed groups from the wait stage to the commit
   stage, preserving order. *)
let rec drain_wait t =
  match Queue.peek_opt t.wait_queue with
  | Some group when group.group_max_index <= t.commit_watermark ->
    ignore (Queue.pop t.wait_queue);
    (* a group a truncation emptied has nothing left to commit *)
    if Array.length group.items > 0 then begin
      let now = Sim.Engine.now t.engine in
      group.released_at <- now;
      Obs.Metrics.record t.meters.m_consensus_wait (now -. group.flushed_at);
      Queue.push group t.commit_queue
    end;
    drain_wait t
  | _ -> start_commit_cycle t

let notify_commit_index t index =
  if index > t.commit_watermark then begin
    t.commit_watermark <- index;
    drain_wait t
  end

let rec start_flush_cycle t =
  if (not t.flushing) && t.submit_acc.len > 0 && not t.aborted then begin
    t.flushing <- true;
    (* Double buffer: the submit accumulator becomes this cycle's batch;
       new submissions land in the (cleared) other buffer. *)
    let batch = t.submit_acc in
    t.submit_acc <- t.flush_acc;
    t.flush_acc <- batch;
    let n = batch.len in
    let stamp = if t.is_primary_path then t.params.Params.raft_stamp_us else 0.0 in
    let cost =
      t.params.Params.flush_base_us
      +. ((t.params.Params.flush_per_txn_us +. stamp) *. float_of_int n)
    in
    ignore
      (Sim.Engine.schedule t.engine ~delay:cost (fun () -> flush_cycle_done t batch n))
  end

(* [batch] is no longer [flush_acc] when a [reset] came between the
   abort and this event: the batch belongs to the aborted run, and the
   pipeline already flushes into another buffer. *)
and flush_cycle_done t batch n =
  if t.aborted || batch != t.flush_acc then begin
    for i = 0 to n - 1 do
      t.finish batch.acc_items.(i) ~ok:false
    done;
    accum_clear batch
  end
  else begin
    t.batch <- batch;
    t.batch_len <- n;
    t.flushed <- 0;
    t.flush_max_index <- 0;
    t.coalesce t.flush_batch;
    let flushed = t.flushed in
    if flushed > 0 then begin
      let submitted = Float.Array.sub batch.acc_submitted 0 flushed in
      let now = Sim.Engine.now t.engine in
      for i = 0 to flushed - 1 do
        Obs.Metrics.record t.meters.m_flush (now -. Float.Array.get submitted i)
      done;
      Obs.Metrics.record t.meters.m_group_size (float_of_int flushed);
      t.flushed_txns <- t.flushed_txns + flushed;
      t.groups_formed <- t.groups_formed + 1;
      t.queued <- t.queued + flushed;
      Obs.Metrics.incr t.meters.m_groups_formed;
      Queue.push
        {
          items = Array.sub batch.acc_items 0 flushed;
          indexes = Array.sub batch.acc_indexes 0 flushed;
          submitted;
          group_max_index = t.flush_max_index;
          flushed_at = now;
          released_at = now;
        }
        t.wait_queue;
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

(* Abort everything in flight: demotion step 1 (§3.3) — the prepared
   transactions behind these items are rolled back by the caller.  The
   group items are plain arrays, so this walks them in place (no
   per-item list rebuilding). *)
let abort_all t =
  t.aborted <- true;
  let count = ref 0 in
  for i = 0 to t.submit_acc.len - 1 do
    t.finish t.submit_acc.acc_items.(i) ~ok:false;
    incr count
  done;
  accum_clear t.submit_acc;
  let abort_group g =
    Array.iter
      (fun item ->
        t.finish item ~ok:false;
        incr count)
      g.items
  in
  Queue.iter abort_group t.wait_queue;
  Queue.iter abort_group t.commit_queue;
  Queue.clear t.wait_queue;
  Queue.clear t.commit_queue;
  t.queued <- 0;
  Obs.Metrics.add t.meters.m_txns_aborted !count;
  update_depth t;
  !count

(* Raft truncated the log from [from_index]: a follower dropped a suffix
   that never reached consensus.  Flushed items at or past that point
   wait on entries that no longer exist, and a group spanning the point
   would wait on an index the log may never reach again — with the
   client stopped, or a new leader whose promotion waits on this very
   applier, forever.  Fail those items, and re-bound each group that
   held one on the items it keeps, in place; groups wholly below the
   point are not touched.  Committed groups cannot be truncated. *)
let truncate t ~from_index =
  let failed = ref 0 in
  Queue.iter
    (fun g ->
      if g.group_max_index >= from_index then begin
        let kept = ref 0 in
        let max_index = ref 0 in
        for i = 0 to Array.length g.items - 1 do
          let index = g.indexes.(i) in
          if index >= from_index then begin
            t.finish g.items.(i) ~ok:false;
            incr failed
          end
          else begin
            let k = !kept in
            g.items.(k) <- g.items.(i);
            g.indexes.(k) <- index;
            Float.Array.set g.submitted k (Float.Array.get g.submitted i);
            kept := k + 1;
            if index > !max_index then max_index := index
          end
        done;
        g.items <- Array.sub g.items 0 !kept;
        g.indexes <- Array.sub g.indexes 0 !kept;
        g.submitted <- Float.Array.sub g.submitted 0 !kept;
        g.group_max_index <- !max_index
      end)
    t.wait_queue;
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
   submissions made after the reset. *)
let reset t =
  if t.flushing then t.flush_acc <- make_accum ();
  t.aborted <- false;
  t.flushing <- false;
  t.committing <- false;
  t.commit_watermark <- 0
