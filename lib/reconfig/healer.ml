(* Self-healing fleet driver.

   Two entry points over one execution discipline (one safe single step
   at a time, never while a change is pending):

   - {!apply_target}: drive the cluster to an arbitrary target config by
     executing a {!Planner} plan — provisioning fresh nodes for
     add-learner steps, waiting for catch-up before promotions (the
     InstallSnapshot rescue feeds a learner that joined behind the purge
     boundary), and transferring leadership out of a member the plan
     demotes or drops.  Re-plans from the live config after every step,
     so a leader change mid-flight just restarts the remainder.

   - {!start}: the reconcile loop.  Every tick it compares liveness
     telemetry against the current config, declares a member dead once
     it has been down past [dead_after], and walks a replacement through
     provision -> join-as-learner -> catch-up -> promote -> evict, one
     idempotent action per tick.  No operator input: the loop re-derives
     its next action from the config and the world, so leader failovers
     or its own crashes in mid-replacement cannot wedge it. *)

let s = Sim.Engine.s

let ms = Sim.Engine.ms

(* How long {!apply_target} waits for each step to commit. *)
let step_timeout = 30.0 *. s

(* The newest installed config across live nodes — the fleet's effective
   membership even while a leader election is in flight. *)
let newest_config cluster =
  List.fold_left
    (fun acc id ->
      if Myraft.Cluster.is_crashed cluster id then acc
      else
        match Myraft.Cluster.raft_of cluster id with
        | None -> acc
        | Some r -> (
          let cid = Raft.Node.config_id r in
          match acc with
          | Some (best, _) when not (Raft.Types.cfg_id_newer cid best) -> acc
          | _ -> Some (cid, Raft.Node.config r)))
    None
    (Myraft.Cluster.member_ids cluster)
  |> Option.map snd

let spec_of_member m =
  match m.Raft.Types.kind with
  | Raft.Types.Mysql_server ->
    Myraft.Cluster.mysql ~voter:false m.Raft.Types.id m.Raft.Types.region
  | Raft.Types.Logtailer -> Myraft.Cluster.logtailer m.Raft.Types.id m.Raft.Types.region

let provision cluster m =
  if Myraft.Cluster.node cluster m.Raft.Types.id = None then
    Myraft.Cluster.add_server cluster (spec_of_member m)

let caught_up cluster ~leader id =
  match Myraft.Cluster.raft_of cluster id with
  | Some r ->
    Binlog.Opid.index (Raft.Node.last_opid r) >= Raft.Node.commit_index leader
  | None -> false

(* ----- plan execution ----- *)

(* Wait until some leader has no pending change and [pred] holds on its
   config. *)
let wait_settled cluster ~timeout pred =
  Myraft.Cluster.run_until cluster ~timeout (fun () ->
      match Myraft.Cluster.leader_raft cluster with
      | Some r ->
        (not (Raft.Node.has_pending_config_change r)) && pred (Raft.Node.config r)
      | None -> false)

(* A graceful transfer target when the next step displaces the leader:
   a voter retained by the target config (preferring MySQL members,
   which can serve as primary without an immediate re-transfer). *)
let transfer_target cluster ~leader_id ~current ~target =
  let keeps m =
    m.Raft.Types.id <> leader_id
    && (not (Myraft.Cluster.is_crashed cluster m.Raft.Types.id))
    &&
    match Raft.Types.find_member target m.Raft.Types.id with
    | Some tm -> tm.Raft.Types.voter
    | None -> false
  in
  let candidates = List.filter keeps (Raft.Types.voters current) in
  let mysqls =
    List.filter (fun m -> m.Raft.Types.kind = Raft.Types.Mysql_server) candidates
  in
  match (mysqls, candidates) with
  | m :: _, _ | [], m :: _ -> Some m.Raft.Types.id
  | [], [] -> None

let apply_target ?(on_step = fun _ -> ()) cluster ~target =
  match Planner.validate target with
  | Error e -> Error e
  | Ok () ->
    let budget =
      2
      * (List.length (Raft.Types.member_ids target)
        + List.length (Myraft.Cluster.member_ids cluster)
        + 4)
    in
    let rec drive done_steps =
      if done_steps > budget then Error "step budget exhausted (plan not converging)"
      else if
        not (wait_settled cluster ~timeout:step_timeout (fun _ -> true))
      then Error "no settled leader"
      else
        match Myraft.Cluster.leader_raft cluster with
        | None -> Error "leader vanished"
        | Some leader -> (
          let current = Raft.Node.config leader in
          match Planner.plan ~current ~target with
          | Error e -> Error e
          | Ok [] -> Ok done_steps
          | Ok (step :: _) -> (
            let leader_id = Raft.Node.id leader in
            let displaces_leader =
              match step with
              | Planner.Demote id | Planner.Remove id -> id = leader_id
              | _ -> false
            in
            if displaces_leader then (
              match transfer_target cluster ~leader_id ~current ~target with
              | None -> Error "no transfer target outside the displaced leader"
              | Some tgt -> (
                match Myraft.Cluster.transfer_leadership cluster ~target:tgt with
                | Error e -> Error ("transfer to " ^ tgt ^ ": " ^ e)
                | Ok () ->
                  if
                    Myraft.Cluster.run_until cluster ~timeout:step_timeout (fun () ->
                        match Myraft.Cluster.raft_leader cluster with
                        | Some l -> l <> leader_id
                        | None -> false)
                  then drive (done_steps + 1)
                  else Error "leadership transfer did not complete"))
            else
              let issue () =
                match step with
                | Planner.Add_learner m ->
                  provision cluster m;
                  Raft.Node.add_member leader { m with Raft.Types.voter = false }
                | Planner.Promote id ->
                  if
                    not
                      (Myraft.Cluster.run_until cluster ~timeout:step_timeout
                         (fun () -> caught_up cluster ~leader id))
                  then Error (id ^ " did not catch up for promotion")
                  else Raft.Node.promote_learner leader id
                | Planner.Demote id -> Raft.Node.demote_voter leader id
                | Planner.Remove id -> Raft.Node.remove_member leader id
              in
              match issue () with
              | Error e -> Error (Planner.describe_step step ^ ": " ^ e)
              | Ok _ ->
                let reached cfg =
                  match step with
                  | Planner.Add_learner m -> Raft.Types.is_member cfg m.Raft.Types.id
                  | Planner.Promote id -> (
                    match Raft.Types.find_member cfg id with
                    | Some m -> m.Raft.Types.voter
                    | None -> false)
                  | Planner.Demote id -> (
                    match Raft.Types.find_member cfg id with
                    | Some m -> not m.Raft.Types.voter
                    | None -> false)
                  | Planner.Remove id -> not (Raft.Types.is_member cfg id)
                in
                if not (wait_settled cluster ~timeout:step_timeout reached) then
                  Error (Planner.describe_step step ^ " did not commit")
                else begin
                  on_step step;
                  drive (done_steps + 1)
                end))
    in
    drive 0

(* ----- the reconcile loop ----- *)

type job = {
  j_corpse : string;
  j_replacement : string;
  j_was_voter : bool;
  j_member : Raft.Types.member; (* the replacement's member record *)
  j_started : float;
  mutable j_provisioned : bool;
}

type replacement = {
  r_corpse : string;
  r_replacement : string;
  r_duration_us : float;
}

type t = {
  cluster : Myraft.Cluster.t;
  engine : Sim.Engine.t;
  check_interval : float;
  dead_after : float;
  metrics : Obs.Metrics.t;
  down_since : (string, float) Hashtbl.t;
  mutable job : job option;
  mutable gen : int;
  mutable completed : replacement list;
  mutable running : bool;
}

let fresh_replacement_id t corpse =
  let rec pick () =
    t.gen <- t.gen + 1;
    let id = Printf.sprintf "%s-r%d" corpse t.gen in
    if Myraft.Cluster.node t.cluster id = None then id else pick ()
  in
  pick ()

(* Liveness telemetry: first-seen-down timestamps over the current
   membership; revived or evicted nodes drop out of the table. *)
let note_liveness t cfg =
  let now = Sim.Engine.now t.engine in
  let member_ids = Raft.Types.member_ids cfg in
  Hashtbl.iter
    (fun id _ -> if not (List.mem id member_ids) then Hashtbl.remove t.down_since id)
    (Hashtbl.copy t.down_since);
  List.iter
    (fun id ->
      if Myraft.Cluster.is_crashed t.cluster id then begin
        if not (Hashtbl.mem t.down_since id) then Hashtbl.replace t.down_since id now
      end
      else Hashtbl.remove t.down_since id)
    member_ids

let dead_members t cfg =
  let now = Sim.Engine.now t.engine in
  List.filter
    (fun m ->
      match Hashtbl.find_opt t.down_since m.Raft.Types.id with
      | Some since -> now -. since >= t.dead_after
      | None -> false)
    (Raft.Types.config_members cfg)

let bump t name = Obs.Metrics.bump t.metrics name

(* One idempotent action against the live job; progress is re-derived
   from the config each tick, so a leader failover mid-replacement (or a
   duplicate action swallowed by the one-change-at-a-time rule) costs
   one tick, not correctness. *)
let step_job t leader job =
  let cluster = t.cluster in
  let cfg = Raft.Node.config leader in
  let corpse = job.j_corpse and repl = job.j_replacement in
  let corpse_member = Raft.Types.is_member cfg corpse in
  let repl_member = Raft.Types.find_member cfg repl in
  let corpse_up = not (Myraft.Cluster.is_crashed cluster corpse) in
  if corpse_up && (not job.j_provisioned) && repl_member = None then begin
    (* The "dead" node came back before we spent anything on it. *)
    Hashtbl.remove t.down_since corpse;
    t.job <- None;
    bump t "healer.cancelled"
  end
  else
    match repl_member with
    | None ->
      if not job.j_provisioned then begin
        provision cluster job.j_member;
        job.j_provisioned <- true;
        bump t "healer.provisioned"
      end
      else (
        match Raft.Node.add_member leader job.j_member with
        | Ok _ -> bump t "healer.joined"
        | Error _ -> () (* e.g. change in progress; retry next tick *))
    | Some m when job.j_was_voter && not m.Raft.Types.voter ->
      if caught_up cluster ~leader repl then (
        match Raft.Node.promote_learner leader repl with
        | Ok _ -> bump t "healer.promoted"
        | Error _ -> ())
    | Some _ when corpse_member ->
      if Raft.Node.id leader = corpse then
        (* The corpse revived and won an election mid-eviction: move
           leadership off it so the eviction can finish. *)
        ignore
          (match transfer_target cluster ~leader_id:corpse ~current:cfg ~target:cfg with
          | Some tgt -> Myraft.Cluster.transfer_leadership cluster ~target:tgt
          | None -> Error "no target")
      else (
        match Raft.Node.remove_member leader corpse with
        | Ok _ -> bump t "healer.evicted"
        | Error _ -> ())
    | Some _ ->
      (* Replacement in (at the corpse's voter grade), corpse out. *)
      t.job <- None;
      Hashtbl.remove t.down_since corpse;
      let r =
        {
          r_corpse = corpse;
          r_replacement = repl;
          r_duration_us = Sim.Engine.now t.engine -. job.j_started;
        }
      in
      t.completed <- t.completed @ [ r ];
      bump t "healer.completed"

let start_job t corpse_m =
  let corpse = corpse_m.Raft.Types.id in
  let repl = fresh_replacement_id t corpse in
  let member =
    {
      Raft.Types.id = repl;
      region = corpse_m.Raft.Types.region;
      voter = false; (* joins as a learner; promoted after catch-up *)
      kind = corpse_m.Raft.Types.kind;
    }
  in
  t.job <-
    Some
      {
        j_corpse = corpse;
        j_replacement = repl;
        j_was_voter = corpse_m.Raft.Types.voter;
        j_member = member;
        j_started = Sim.Engine.now t.engine;
        j_provisioned = false;
      };
  bump t "healer.detected"

let tick t =
  bump t "healer.ticks";
  match Myraft.Cluster.leader_raft t.cluster with
  | None -> () (* elections first; liveness clocks keep their epoch *)
  | Some leader -> (
    let cfg = Raft.Node.config leader in
    note_liveness t cfg;
    if not (Raft.Node.has_pending_config_change leader) then
      match t.job with
      | Some job -> step_job t leader job
      | None -> (
        match dead_members t cfg with
        | [] -> ()
        | corpse :: _ -> start_job t corpse))

let start ?(check_interval = 500.0 *. ms) ?(dead_after = 10.0 *. s) cluster =
  let t =
    {
      cluster;
      engine = Myraft.Cluster.engine cluster;
      check_interval;
      dead_after;
      metrics = Obs.Metrics.create ~node:"healer" ();
      down_since = Hashtbl.create 8;
      job = None;
      gen = 0;
      completed = [];
      running = true;
    }
  in
  let rec loop () =
    if t.running then begin
      tick t;
      ignore (Sim.Engine.schedule t.engine ~delay:t.check_interval loop)
    end
  in
  ignore (Sim.Engine.schedule t.engine ~delay:t.check_interval loop);
  t

let stop t = t.running <- false

let replacements t = t.completed

let in_flight t =
  Option.map (fun j -> (j.j_corpse, j.j_replacement)) t.job

let metrics_snapshot t = Obs.Metrics.snapshot t.metrics
