(* The three-stage commit pipeline (§3.4, §3.5).

   Stage 1 (Flush): transactions queued while the flusher is busy are
   flushed together — MySQL group commit.  On the primary the flush
   appends each transaction to the binlog *through Raft*; on a replica it
   writes the applier's local log.  The stage's [flush] closure performs
   that work and returns the Raft index the item must wait for.

   Stage 2 (Wait for Raft consensus commit): a flushed group blocks until
   Raft's commit marker covers its last index.  On the leader the marker
   advances when the data quorum's acknowledgements arrive; on a follower
   when the leader's piggybacked marker arrives — the same wait in both
   cases, preserving the paper's primary/replica symmetry.

   Stage 3 (Engine commit): the group is durably committed to the storage
   engine and each item's completion callback runs (returning success to
   the client, releasing row locks).  Groups released by consensus while
   a commit cycle is running are MERGED into the next cycle — one fsync
   ([commit_base_us]) covers them all, up to [group_commit_max]
   transactions — which is how the engine side of group commit widens
   under load (§3.5).

   Groups move through stages strictly in order, mirroring the per-stage
   mutexes in MySQL.

   Memory discipline: the flush stage accumulates submissions into a
   reusable double-buffered array (no per-submit list cells or options:
   empty slots hold a shared sentinel), each flushed group carries its
   items as one right-sized array, and an item's Raft index is stored in
   a mutable field of its pending record rather than a per-item pair.
   Steady state allocates one pending record per transaction and one
   array + group record per group.  The in-flight count is a maintained
   counter, so a submit costs O(1) however many groups are queued.

   Each stage boundary is timestamped so the per-stage latency histograms
   (pipeline.flush_us / consensus_wait_us / engine_commit_us and the
   end-to-end pipeline.txn_total_us) decompose a transaction's commit
   latency the way Figure 4 does. *)

type item = {
  flush : unit -> (int, string) result; (* returns raft index to wait on *)
  finish : ok:bool -> unit;
}

(* An item plus its submission time (for stage latency accounting) and,
   once flushed, the Raft index it waits on. *)
type pending = { it : item; submitted_at : float; mutable raft_index : int }

type group = {
  items : pending array;
  group_max_index : int;
  flushed_at : float;
  mutable released_at : float; (* when consensus released it to stage 3 *)
}

(* Growable array of pendings, reused across flush cycles; slots at or
   past [len] hold [no_pending]. *)
type accum = { mutable buf : pending array; mutable len : int }

let no_pending =
  {
    it = { flush = (fun () -> Ok 0); finish = (fun ~ok:_ -> ()) };
    submitted_at = 0.0;
    raft_index = 0;
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

type t = {
  engine : Sim.Engine.t;
  params : Params.t;
  mutable submit_acc : accum; (* incoming submissions (stage-1 accumulator) *)
  mutable flush_acc : accum; (* the batch currently flushing (double buffer) *)
  mutable flushing : bool;
  wait_queue : group Queue.t;
  commit_queue : group Queue.t;
  mutable committing : bool;
  mutable queued : int; (* items in the wait and commit queues *)
  mutable commit_watermark : int; (* raft commit index *)
  mutable aborted : bool;
  (* Runs the whole flush group's appends as one unit; the embedder
     points it at the log's group-commit scope (one fsync per group
     instead of one per transaction) and at Raft's post-sync notifier. *)
  mutable coalesce : (unit -> unit) -> unit;
  mutable flushed_txns : int;
  mutable groups_formed : int;
  is_primary_path : bool; (* primaries pay the Raft stamping cost *)
  meters : meters;
}

let create ?metrics ~engine ~params ~is_primary_path () =
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  {
    engine;
    params;
    submit_acc = { buf = Array.make 64 no_pending; len = 0 };
    flush_acc = { buf = Array.make 64 no_pending; len = 0 };
    flushing = false;
    wait_queue = Queue.create ();
    commit_queue = Queue.create ();
    committing = false;
    queued = 0;
    commit_watermark = 0;
    aborted = false;
    coalesce = (fun f -> f ());
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

let accum_push a p =
  if a.len = Array.length a.buf then begin
    let bigger = Array.make (2 * Array.length a.buf) no_pending in
    Array.blit a.buf 0 bigger 0 a.len;
    a.buf <- bigger
  end;
  a.buf.(a.len) <- p;
  a.len <- a.len + 1

let accum_clear a =
  Array.fill a.buf 0 a.len no_pending;
  a.len <- 0

let set_coalesce t f = t.coalesce <- f

let groups_formed t = t.groups_formed

let mean_group_size t =
  if t.groups_formed = 0 then 0.0
  else float_of_int t.flushed_txns /. float_of_int t.groups_formed

let in_flight t = t.submit_acc.len + t.queued + if t.flushing then 1 else 0

let update_depth t = Obs.Metrics.set_gauge_int t.meters.m_queue_depth (in_flight t)

(* One engine commit cycle over every released group waiting at stage 3,
   merged up to [group_commit_max] transactions: [commit_base_us] (the
   engine fsync) is paid once for the whole merged set. *)
let rec start_commit_cycle t =
  if (not t.committing) && (not (Queue.is_empty t.commit_queue)) && not t.aborted
  then begin
    t.committing <- true;
    let cap = Params.group_commit_max in
    let rec take acc n =
      match Queue.peek_opt t.commit_queue with
      | Some g when n = 0 || n + Array.length g.items <= cap ->
        ignore (Queue.pop t.commit_queue);
        take (g :: acc) (n + Array.length g.items)
      | _ -> (List.rev acc, n)
    in
    let groups, n = take [] 0 in
    t.queued <- t.queued - n;
    if List.length groups > 1 then Obs.Metrics.incr t.meters.m_groups_merged;
    Obs.Metrics.record t.meters.m_commit_cycle_txns (float_of_int n);
    let cost =
      t.params.Params.commit_base_us
      +. (t.params.Params.commit_per_txn_us *. float_of_int n)
    in
    ignore
      (Sim.Engine.schedule t.engine ~delay:cost (fun () ->
           let now = Sim.Engine.now t.engine in
           List.iter
             (fun group ->
               Obs.Metrics.record t.meters.m_engine_commit (now -. group.released_at);
               Array.iter
                 (fun p ->
                   p.it.finish ~ok:true;
                   Obs.Metrics.record t.meters.m_txn_total (now -. p.submitted_at))
                 group.items)
             groups;
           Obs.Metrics.add t.meters.m_txns_committed n;
           t.committing <- false;
           update_depth t;
           start_commit_cycle t))
  end

(* Move consensus-committed groups from the wait stage to the commit
   stage, preserving order. *)
let drain_wait t =
  let rec drain () =
    match Queue.peek_opt t.wait_queue with
    | Some group when group.group_max_index <= t.commit_watermark ->
      ignore (Queue.pop t.wait_queue);
      let now = Sim.Engine.now t.engine in
      group.released_at <- now;
      Obs.Metrics.record t.meters.m_consensus_wait (now -. group.flushed_at);
      Queue.push group t.commit_queue;
      drain ()
    | _ -> start_commit_cycle t
  in
  drain ()

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
      (Sim.Engine.schedule t.engine ~delay:cost (fun () ->
           if t.aborted then begin
             for i = 0 to n - 1 do
               batch.buf.(i).it.finish ~ok:false
             done;
             accum_clear batch
           end
           else begin
             let flushed = ref 0 in
             let group_max_index = ref 0 in
             t.coalesce (fun () ->
                 for i = 0 to n - 1 do
                   let p = batch.buf.(i) in
                   match p.it.flush () with
                   | Ok index ->
                     p.raft_index <- index;
                     if index > !group_max_index then group_max_index := index;
                     (* compact survivors to the front, in order *)
                     batch.buf.(!flushed) <- p;
                     incr flushed
                   | Error _ -> p.it.finish ~ok:false
                 done);
             let flushed = !flushed in
             if flushed > 0 then begin
               let items = Array.sub batch.buf 0 flushed in
               let now = Sim.Engine.now t.engine in
               Array.iter
                 (fun p -> Obs.Metrics.record t.meters.m_flush (now -. p.submitted_at))
                 items;
               Obs.Metrics.record t.meters.m_group_size (float_of_int flushed);
               t.flushed_txns <- t.flushed_txns + flushed;
               t.groups_formed <- t.groups_formed + 1;
               t.queued <- t.queued + flushed;
               Obs.Metrics.incr t.meters.m_groups_formed;
               Queue.push
                 {
                   items;
                   group_max_index = !group_max_index;
                   flushed_at = now;
                   released_at = now;
                 }
                 t.wait_queue;
               drain_wait t
             end;
             accum_clear batch;
             t.flushing <- false;
             start_flush_cycle t
           end))
  end

let submit t item =
  if t.aborted then item.finish ~ok:false
  else begin
    accum_push t.submit_acc
      { it = item; submitted_at = Sim.Engine.now t.engine; raft_index = 0 };
    update_depth t;
    start_flush_cycle t
  end

(* Abort everything in flight: demotion step 1 (§3.3) — the prepared
   transactions behind these items are rolled back by the caller.  The
   group items are plain pending arrays, so this walks them in place (no
   per-item list rebuilding). *)
let abort_all t =
  t.aborted <- true;
  let count = ref 0 in
  for i = 0 to t.submit_acc.len - 1 do
    t.submit_acc.buf.(i).it.finish ~ok:false;
    incr count
  done;
  accum_clear t.submit_acc;
  let abort_group g =
    Array.iter
      (fun p ->
        p.it.finish ~ok:false;
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

(* Re-arm after a role change (the pipeline object survives demote +
   promote cycles). *)
let reset t =
  t.aborted <- false;
  t.flushing <- false;
  t.committing <- false;
  t.commit_watermark <- 0
