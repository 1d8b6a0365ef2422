(* Register-semantics linearizability checker for the read path.

   One writer session appends monotonically increasing values to a
   single register key, strictly one write outstanding at a time, so the
   committed value sequence is monotone: the register's linearized value
   at any instant is the largest acknowledged value.  Concurrently,
   reader sessions issue [Linearizable] reads against random MySQL
   members (exercising both the leader's ReadIndex/lease path and
   follower forwarding) and [Eventual] reads against the same members.

   The check: a Linearizable read must return a value at least as new as
   every write acknowledged BEFORE the read was issued (the floor
   captured at issue time).  Anything older is a real-time ordering
   violation and is reported into {!Invariants}.  Eventual reads are
   held to no such standard — we merely count how often they observe
   staleness (value below the floor at completion), which the acceptance
   run requires to be non-zero: proof the checker can tell the tiers
   apart. *)

type stats = {
  mutable writes_acked : int;
  mutable lin_issued : int;
  mutable lin_ok : int;
  mutable lin_rejected : int; (* rejected or timed out: no safety claim *)
  mutable lin_violations : int;
  mutable ev_issued : int;
  mutable ev_ok : int;
  mutable ev_stale : int; (* eventual reads that observed staleness *)
}

type t = {
  backend : Workload.Backend.t;
  inv : Invariants.t;
  rng : Sim.Rng.t;
  client : string;
  stats : stats;
  pending_writes : (int, bool -> unit) Hashtbl.t;
  pending_reads : (int, Workload.Backend.read_outcome -> unit) Hashtbl.t;
  mutable next_value : int;
  mutable floor : int; (* largest acknowledged value *)
  mutable next_read_id : int;
  mutable running : bool;
}

let table = "linreg"

(* Pause between one write's acknowledgement and the next write, and
   between one reader's reads (virtual µs). *)
let write_gap = 15.0 *. Sim.Engine.ms

let read_gap = 5.0 *. Sim.Engine.ms

(* A write or read unanswered after this long is settled as rejected. *)
let timeout = 2.0 *. Sim.Engine.s

let key = "register"

let stats t = t.stats

let stop t = t.running <- false

let encode v = Printf.sprintf "%012d" v

let decode s = int_of_string (String.trim s)

let schedule t ~delay f =
  ignore (Sim.Engine.schedule t.backend.Workload.Backend.engine ~delay f)

(* ----- the single monotone writer ----- *)

(* One write in flight at a time: on ack raise the floor, then (either
   way) pause one gap and write the next value.  Timeouts are settled by
   our own timer since a crashed primary never replies. *)
let rec write_loop t =
  if t.running then begin
    let v = t.next_value in
    t.next_value <- t.next_value + 1;
    let write_id = v in
    let settle ok =
      if Hashtbl.mem t.pending_writes write_id then begin
        Hashtbl.remove t.pending_writes write_id;
        if ok then begin
          t.stats.writes_acked <- t.stats.writes_acked + 1;
          if v > t.floor then t.floor <- v
        end;
        schedule t ~delay:write_gap (fun () -> write_loop t)
      end
    in
    Hashtbl.replace t.pending_writes write_id settle;
    let sent =
      t.backend.Workload.Backend.send_write ~client:t.client ~write_id ~table
        ~ops:[ Binlog.Event.Insert { key; value = encode v } ]
    in
    if not sent then settle false
    else schedule t ~delay:timeout (fun () -> settle false)
  end

(* ----- readers ----- *)

let pick t l = List.nth l (Sim.Rng.int t.rng (List.length l))

let observed_value = function
  | Workload.Backend.Read_value (Some s) -> ( try Some (decode s) with _ -> None)
  | Workload.Backend.Read_value None -> Some 0 (* register never written *)
  | Workload.Backend.Read_rejected _ -> None

let rec read_loop t ~level =
  if t.running then begin
    let read_id = t.next_read_id in
    t.next_read_id <- t.next_read_id + 1;
    let floor_at_issue = t.floor in
    let is_lin = level = Read.Level.Linearizable in
    if is_lin then t.stats.lin_issued <- t.stats.lin_issued + 1
    else t.stats.ev_issued <- t.stats.ev_issued + 1;
    let settle outcome =
      if Hashtbl.mem t.pending_reads read_id then begin
        Hashtbl.remove t.pending_reads read_id;
        (match (is_lin, outcome, observed_value outcome) with
        | true, Workload.Backend.Read_value _, Some v ->
          t.stats.lin_ok <- t.stats.lin_ok + 1;
          if v < floor_at_issue then begin
            t.stats.lin_violations <- t.stats.lin_violations + 1;
            Invariants.report t.inv ~invariant:"linearizability"
              ~detail:
                (Printf.sprintf
                   "linearizable read %d observed value %d older than acknowledged write %d"
                   read_id v floor_at_issue)
          end
        | true, _, _ -> t.stats.lin_rejected <- t.stats.lin_rejected + 1
        | false, Workload.Backend.Read_value _, Some v ->
          t.stats.ev_ok <- t.stats.ev_ok + 1;
          (* staleness vs the CURRENT floor: a weaker observation, not a
             violation — eventual reads promise nothing *)
          if v < t.floor then t.stats.ev_stale <- t.stats.ev_stale + 1
        | false, _, _ -> ());
        schedule t ~delay:read_gap (fun () -> read_loop t ~level)
      end
    in
    Hashtbl.replace t.pending_reads read_id settle;
    let targets = t.backend.Workload.Backend.read_targets () in
    let sent =
      targets <> []
      && t.backend.Workload.Backend.send_read ~client:t.client ~read_id ~level ~table ~key
           ~target:(Some (pick t targets))
    in
    if not sent then
      settle (Workload.Backend.Read_rejected { reason = "no target"; retry_after = None })
    else
      schedule t ~delay:timeout (fun () ->
          settle
            (Workload.Backend.Read_rejected
               { reason = "read timed out"; retry_after = None }))
  end

let start ~backend ~invariants () =
  let t =
    {
      backend;
      inv = invariants;
      rng = Sim.Rng.split (Sim.Engine.rng backend.Workload.Backend.engine);
      client = "linreg-client";
      stats =
        {
          writes_acked = 0;
          lin_issued = 0;
          lin_ok = 0;
          lin_rejected = 0;
          lin_violations = 0;
          ev_issued = 0;
          ev_ok = 0;
          ev_stale = 0;
        };
      pending_writes = Hashtbl.create 64;
      pending_reads = Hashtbl.create 256;
      next_value = 1;
      floor = 0;
      next_read_id = 1;
      running = true;
    }
  in
  backend.Workload.Backend.register_client ~id:t.client ~region:"r1"
    ~on_reply:(fun ~write_id ~ok ~gtid:_ ->
      match Hashtbl.find_opt t.pending_writes write_id with
      | Some settle -> settle ok
      | None -> ())
    ~on_read_reply:(fun ~read_id ~outcome ->
      match Hashtbl.find_opt t.pending_reads read_id with
      | Some settle -> settle outcome
      | None -> ());
  write_loop t;
  let start_reader level =
    schedule t ~delay:(Sim.Rng.uniform t.rng ~lo:0.0 ~hi:read_gap) (fun () ->
        read_loop t ~level)
  in
  start_reader Read.Level.Linearizable;
  start_reader Read.Level.Linearizable;
  start_reader Read.Level.Eventual;
  t

let summary t =
  let s = t.stats in
  Printf.sprintf
    "linreg: %d writes acked (floor %d) · lin %d/%d ok, %d rejected, %d violations · eventual %d/%d ok, %d stale"
    s.writes_acked t.floor s.lin_ok s.lin_issued s.lin_rejected s.lin_violations s.ev_ok
    s.ev_issued s.ev_stale
