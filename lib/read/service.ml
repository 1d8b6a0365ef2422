(* The consistency-tiered read service: one per server, generic over an
   [ops] record so the same tiering logic runs on leaders, followers and
   learners (Table 1: every role serves reads).

   Level dispatch:
   - Linearizable: resolve a read index (leader-lease fast path, else a
     batched ReadIndex round; followers forward to the leader), wait for
     the local engine to apply through it, then read locally.
   - Read_your_writes: wait for the session's carried GTID to commit in
     the local engine, then read.
   - Bounded_staleness: served immediately when the replica can prove
     its engine fresh within the bound (staleness anchor propagated on
     AppendEntries); else rejected with a retry hint sized to the
     replication heartbeat.
   - Eventual: read the local engine as-is.

   A read that needs no wait is answered at dispatch: a lease read whose
   engine has applied through the lease index, eventual, read-your-writes
   without a token, and a bounded read whose bound is met (or is not).
   It builds nothing but its outcome: no refs, no closures, no deadline.
   Every other read parks as one [parked] record, driven by top-level
   functions, and carries a service-level deadline: continuations parked
   on apply/commit waiters die silently when leadership moves or the
   node crashes, and the deadline converts that into a retryable
   rejection.  A parked read that settles cancels its own deadline, so
   the event queue holds none for a read that is no longer waiting. *)

type outcome =
  | Read_value of string option
  | Read_rejected of { reason : string; retry_after : float option }

type ops = {
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> Sim.Engine.handle;
  read_index : ((int, string) result -> unit) -> unit;
      (* resolve the linearizable read index from any role *)
  lease_read_index : unit -> int;
      (* the leader-lease read index, -1 without a lease; see Raft.Node *)
  staleness_anchor : unit -> float * int; (* (as_of, index), see Raft.Node *)
  applied_index : unit -> int;
      (* highest log index the local engine has applied through *)
  wait_applied : int -> (unit -> unit) -> unit;
      (* call back once applied_index reaches the argument; never fires
         early, may never fire (the deadline guards) *)
  wait_gtid : Binlog.Gtid.t -> timeout:float -> (bool -> unit) -> unit;
  get : table:string -> key:string -> string option;
}

type params = {
  read_timeout : float; (* service-level deadline per read *)
  retry_hint : float; (* suggested client backoff on rejection *)
}

let default_params =
  { read_timeout = 2.0 *. Sim.Engine.s; retry_hint = 100.0 *. Sim.Engine.ms }

type tier_meters = {
  tm_served : Obs.Metrics.counter;
  tm_rejected : Obs.Metrics.counter;
  tm_latency : Obs.Metrics.histogram;
}

type t = {
  ops : ops;
  params : params;
  m_lease : Obs.Metrics.counter; (* linearizable reads off the lease *)
  m_quorum : Obs.Metrics.counter; (* linearizable reads via a round *)
  m_timeouts : Obs.Metrics.counter;
  linearizable : tier_meters;
  ryw : tier_meters;
  bounded : tier_meters;
  eventual : tier_meters;
  retry_after : float option; (* [Some retry_hint], boxed once *)
}

let tier_meters m label =
  {
    tm_served = Obs.Metrics.counter m (Printf.sprintf "read.%s.served" label);
    tm_rejected = Obs.Metrics.counter m (Printf.sprintf "read.%s.rejected" label);
    tm_latency = Obs.Metrics.histogram m (Printf.sprintf "read.%s.latency_us" label);
  }

let create ?(params = default_params) ~metrics ~ops () =
  let linearizable = tier_meters metrics "linearizable" in
  let ryw = tier_meters metrics "ryw" in
  let bounded = tier_meters metrics "bounded" in
  let eventual = tier_meters metrics "eventual" in
  let m_timeouts = Obs.Metrics.counter metrics "read.timeouts" in
  let m_quorum = Obs.Metrics.counter metrics "read.quorum_served" in
  let m_lease = Obs.Metrics.counter metrics "read.lease_served" in
  {
    ops;
    params;
    m_lease;
    m_quorum;
    m_timeouts;
    linearizable;
    ryw;
    bounded;
    eventual;
    retry_after = Some params.retry_hint;
  }

(* ----- answered at dispatch ----- *)

(* Dispatch spends no virtual time, so a read answered there is recorded
   at 0 us, the reading it had as [now () - start]. *)
let answer tier ops ~table ~key reply ctx =
  let v = ops.get ~table ~key in
  Obs.Metrics.incr tier.tm_served;
  Obs.Metrics.record tier.tm_latency 0.0;
  reply ctx (Read_value v)

let refuse t tier reason reply ctx =
  Obs.Metrics.incr tier.tm_rejected;
  reply ctx (Read_rejected { reason; retry_after = t.retry_after })

(* ----- parked ----- *)

(* A read that waits on a read-index round, an apply or a GTID commit.
   The happy path and the deadline race to settle it; [settled] lets the
   first one through. *)
type parked =
  | Parked : {
      svc : t;
      tier : tier_meters;
      start : float;
      table : string;
      key : string;
      reply : 'c -> outcome -> unit;
      ctx : 'c;
      mutable settled : bool;
      mutable deadline : Sim.Engine.handle; (* [Sim.Engine.none] until armed *)
    }
      -> parked

let settle (Parked p) outcome =
  if not p.settled then begin
    p.settled <- true;
    Sim.Engine.cancel p.deadline;
    (match outcome with
    | Read_value _ ->
      Obs.Metrics.incr p.tier.tm_served;
      Obs.Metrics.record p.tier.tm_latency (p.svc.ops.now () -. p.start)
    | Read_rejected _ -> Obs.Metrics.incr p.tier.tm_rejected);
    p.reply p.ctx outcome
  end

let reject (Parked p as r) reason =
  settle r (Read_rejected { reason; retry_after = p.svc.retry_after })

let read_local (Parked p as r) = settle r (Read_value (p.svc.ops.get ~table:p.table ~key:p.key))

let on_applied (Parked p as r) () = if not p.settled then read_local r

let after_applied (Parked p as r) index =
  let ops = p.svc.ops in
  if ops.applied_index () >= index then read_local r
  else ops.wait_applied index (on_applied r)

let on_read_index (Parked p as r) = function
  | Error e -> reject r e
  | Ok index ->
    if not p.settled then begin
      Obs.Metrics.incr p.svc.m_quorum;
      after_applied r index
    end

let on_gtid r committed =
  if committed then read_local r
  else reject r "read-your-writes: session write not yet applied here"

let on_deadline (Parked p as r) () =
  Obs.Metrics.incr p.svc.m_timeouts;
  reject r "read timed out"

let park t tier ~table ~key reply ctx =
  Parked
    {
      svc = t;
      tier;
      start = t.ops.now ();
      table;
      key;
      reply;
      ctx;
      settled = false;
      deadline = Sim.Engine.none;
    }

(* The deadline of a read still waiting once dispatch returns lands
   [read_timeout] after [start], as if armed on entry. *)
let arm_deadline t (Parked p as r) =
  if not p.settled then
    p.deadline <- t.ops.schedule ~delay:t.params.read_timeout (on_deadline r)

let serve t ~level ~table ~key reply ctx =
  let ops = t.ops in
  match level with
  | Level.Eventual -> answer t.eventual ops ~table ~key reply ctx
  | Level.Read_your_writes None -> answer t.ryw ops ~table ~key reply ctx
  | Level.Bounded_staleness bound ->
    let as_of, index = ops.staleness_anchor () in
    let age = ops.now () -. as_of in
    if as_of = neg_infinity || age > bound then
      refuse t t.bounded
        (Printf.sprintf "staleness bound exceeded (%.0fus behind, bound %.0fus)" age bound)
        reply ctx
    else if ops.applied_index () >= index then answer t.bounded ops ~table ~key reply ctx
    else refuse t t.bounded "staleness bound met but engine still applying" reply ctx
  | Level.Linearizable ->
    let index = ops.lease_read_index () in
    if index >= 0 then begin
      Obs.Metrics.incr t.m_lease;
      if ops.applied_index () >= index then answer t.linearizable ops ~table ~key reply ctx
      else begin
        let r = park t t.linearizable ~table ~key reply ctx in
        ops.wait_applied index (on_applied r);
        arm_deadline t r
      end
    end
    else begin
      let r = park t t.linearizable ~table ~key reply ctx in
      ops.read_index (on_read_index r);
      arm_deadline t r
    end
  | Level.Read_your_writes (Some gtid) ->
    let r = park t t.ryw ~table ~key reply ctx in
    ops.wait_gtid gtid ~timeout:t.params.read_timeout (on_gtid r);
    arm_deadline t r
