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

   Every read that parks carries a service-level deadline: continuations
   parked on apply/commit waiters die silently when leadership moves or
   the node crashes, and the deadline converts that into a retryable
   rejection.  A read answered during dispatch (the lease fast path,
   eventual, bounded) never arms one, and a parked read that settles
   cancels its own, so the event queue holds no deadline for a read that
   is no longer waiting. *)

type outcome =
  | Value of string option
  | Rejected of { reason : string; retry_after : float option }

type ops = {
  now : unit -> float;
  schedule : delay:float -> (unit -> unit) -> Sim.Engine.handle;
  read_index : ((int, string) result -> unit) -> unit;
      (* resolve the linearizable read index from any role *)
  lease_valid : unit -> bool; (* metric attribution: fast path vs round *)
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
  tiers : (string * tier_meters) list; (* keyed by Level.label *)
}

let tier_meters m label =
  {
    tm_served = Obs.Metrics.counter m (Printf.sprintf "read.%s.served" label);
    tm_rejected = Obs.Metrics.counter m (Printf.sprintf "read.%s.rejected" label);
    tm_latency = Obs.Metrics.histogram m (Printf.sprintf "read.%s.latency_us" label);
  }

let create ?(params = default_params) ~metrics ~ops () =
  {
    ops;
    params;
    m_lease = Obs.Metrics.counter metrics "read.lease_served";
    m_quorum = Obs.Metrics.counter metrics "read.quorum_served";
    m_timeouts = Obs.Metrics.counter metrics "read.timeouts";
    tiers =
      List.map
        (fun label -> (label, tier_meters metrics label))
        [ "linearizable"; "ryw"; "bounded"; "eventual" ];
  }

let serve t ~level ~table ~key k =
  let ops = t.ops in
  let start = ops.now () in
  let tier = List.assoc (Level.label level) t.tiers in
  let finished = ref false in
  let deadline = ref None in
  (* Single-fire guard: apply/commit waiters have no cancellation, so
     the deadline and the happy path race to finish the read. *)
  let finish outcome =
    if not !finished then begin
      finished := true;
      (match !deadline with Some h -> Sim.Engine.cancel h | None -> ());
      (match outcome with
      | Value _ ->
        Obs.Metrics.incr tier.tm_served;
        Obs.Metrics.record tier.tm_latency (ops.now () -. start)
      | Rejected _ -> Obs.Metrics.incr tier.tm_rejected);
      k outcome
    end
  in
  let reject reason = finish (Rejected { reason; retry_after = Some t.params.retry_hint }) in
  let read_local () = finish (Value (ops.get ~table ~key)) in
  let after_applied index =
    if ops.applied_index () >= index then read_local ()
    else ops.wait_applied index (fun () -> if not !finished then read_local ())
  in
  (match level with
  | Level.Eventual -> read_local ()
  | Level.Read_your_writes None -> read_local ()
  | Level.Read_your_writes (Some gtid) ->
    ops.wait_gtid gtid ~timeout:t.params.read_timeout (fun committed ->
        if committed then read_local ()
        else reject "read-your-writes: session write not yet applied here")
  | Level.Bounded_staleness bound ->
    let as_of, index = ops.staleness_anchor () in
    let age = ops.now () -. as_of in
    if as_of = neg_infinity || age > bound then
      reject
        (Printf.sprintf "staleness bound exceeded (%.0fus behind, bound %.0fus)" age bound)
    else if ops.applied_index () >= index then read_local ()
    else reject "staleness bound met but engine still applying"
  | Level.Linearizable ->
    let via_lease = ops.lease_valid () in
    ops.read_index (fun result ->
        match result with
        | Error e -> reject e
        | Ok index ->
          if not !finished then begin
            Obs.Metrics.incr (if via_lease then t.m_lease else t.m_quorum);
            after_applied index
          end));
  (* Dispatch spends no virtual time, so the deadline of a read that
     parked lands [read_timeout] after [start], as if armed on entry. *)
  if not !finished then
    deadline :=
      Some
        (ops.schedule ~delay:t.params.read_timeout (fun () ->
             Obs.Metrics.incr t.m_timeouts;
             reject "read timed out"))
