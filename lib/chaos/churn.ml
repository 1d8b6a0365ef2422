(* Membership-churn chaos: directed reconfiguration scenarios run under
   the invariant checker (including the logless-reconfig oracles), each
   gated on zero violations plus end-of-run convergence.

   - {!rolling_evacuation}: drain a whole region through the planner —
     every member of r3 is replaced by a fresh node in a new region r4
     (staged learner adds, catch-up promotes, voter drain, eviction)
     while an open-loop workload keeps writing;
   - {!replace_while_partitioned}: a region is partitioned away, a voter
     elsewhere is killed permanently, and the self-healing driver must
     restore full redundancy while the partition is still up;
   - {!storm_churn}: continuous membership changes (voter/learner
     toggles, add/remove of an extra node) racing an election-storm
     nemesis mix — term churn in the middle of config gossip;
   - {!sharded_churn}: per-group membership churn on a multi-Raft
     deployment, every group checked by its own invariant set.

   Churn needs dynamic probes: replacements are brand-new nodes, and
   evicted members must leave the convergence check.  Each probe's
   [probe_up] therefore also requires membership in the newest installed
   config across live nodes. *)

let s = Sim.Engine.s

let leader_raft cluster =
  match Myraft.Cluster.raft_leader cluster with
  | Some id -> Myraft.Cluster.raft_of cluster id
  | None -> None

type report = {
  c_scenario : string;
  c_seed : int;
  c_reconfigs : int; (* committed membership changes *)
  c_replacements : (string * string) list; (* corpse, replacement *)
  c_committed : int;
  c_workload_committed : int;
  c_converged : bool;
  c_violations : Invariants.violation list;
  c_metrics : Obs.Metrics.snapshot;
}

let report_summary r =
  Printf.sprintf
    "%s seed %d · %d reconfigs · %d replacements · committed idx %d · %d client commits · converged %b · %d violations"
    r.c_scenario r.c_seed r.c_reconfigs
    (List.length r.c_replacements)
    r.c_committed r.c_workload_committed r.c_converged
    (List.length r.c_violations)

(* ----- membership-aware probes ----- *)

let member_probe cluster id =
  {
    Invariants.probe_id = id;
    probe_up =
      (fun () ->
        (not (Myraft.Cluster.is_crashed cluster id))
        &&
        match Reconfig.Healer.newest_config cluster with
        | Some cfg -> Raft.Types.is_member cfg id
        | None -> true);
    probe_raft = (fun () -> Myraft.Cluster.raft_of cluster id);
    probe_store =
      (fun () ->
        match Myraft.Cluster.node cluster id with
        | Some (Myraft.Cluster.Mysql_node sv) -> Some (Myraft.Server.log sv)
        | Some (Myraft.Cluster.Tailer_node l) -> Some (Myraft.Logtailer.log l)
        | None -> None);
    probe_engine =
      (fun () ->
        match Myraft.Cluster.node cluster id with
        | Some (Myraft.Cluster.Mysql_node sv) -> Some (Myraft.Server.storage sv)
        | _ -> None);
  }

(* Idempotent: newly provisioned nodes gain a probe, existing ids are
   left alone. *)
let sync_probes inv cluster =
  List.iter
    (fun id -> Invariants.add_probe inv (member_probe cluster id))
    (Myraft.Cluster.member_ids cluster)

(* ----- settling: current members only ----- *)

(* Full convergence over the *current* membership: equal commit indexes
   and log tails, drained appliers, and one agreed config identity.
   Evicted nodes (and permanently dead corpses) are out of scope — the
   membership-aware probes exclude them from [check_converged] too. *)
let members_settled cluster =
  match (Myraft.Cluster.raft_leader cluster, Reconfig.Healer.newest_config cluster) with
  | None, _ | _, None -> false
  | Some _, Some cfg -> (
    let ids =
      List.filter
        (fun id -> not (Myraft.Cluster.is_crashed cluster id))
        (Raft.Types.member_ids cfg)
    in
    let rafts = List.filter_map (Myraft.Cluster.raft_of cluster) ids in
    match rafts with
    | [] -> false
    | r0 :: rest ->
      let i = Raft.Node.commit_index r0 in
      let tl = Binlog.Opid.index (Raft.Node.last_opid r0) in
      let cid = Raft.Node.config_id r0 in
      i > 0
      && List.for_all (fun r -> Raft.Node.commit_index r = i) rest
      && List.for_all (fun r -> Binlog.Opid.index (Raft.Node.last_opid r) = tl) rest
      && List.for_all (fun r -> Raft.Node.config_id r = cid) rest
      && List.for_all
           (fun id ->
             match Myraft.Cluster.server cluster id with
             | Some srv -> Myraft.Server.applied_through srv >= i
             | None -> true)
           ids)

(* ----- the classic-cluster harness ----- *)

type harness = {
  h_cluster : Myraft.Cluster.t;
  h_gen : Workload.Generator.t;
  h_inv : Invariants.t;
}

let classic_harness ~seed =
  let params =
    {
      Myraft.Params.default with
      raft =
        {
          Myraft.Params.default.Myraft.Params.raft with
          Raft.Node.quorum_mode = Raft.Quorum.Single_region_dynamic;
        };
    }
  in
  let cluster =
    Myraft.Cluster.create ~seed ~params ~replicaset:"churn"
      ~members:(Nemesis.chaos_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"my1";
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"churn-client" ~region:"r1" ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:100.0;
  let inv =
    Invariants.create
      ~snapshot:(fun () -> Myraft.Cluster.metrics_snapshot cluster)
      ~now:(fun () -> Myraft.Cluster.now cluster)
      ~probes:[] ()
  in
  sync_probes inv cluster;
  { h_cluster = cluster; h_gen = gen; h_inv = inv }

let finish h ~scenario ~seed ~reconfigs ~replacements ~extra_metrics =
  Workload.Generator.stop h.h_gen;
  sync_probes h.h_inv h.h_cluster;
  let settled =
    Myraft.Cluster.run_until h.h_cluster ~timeout:(60.0 *. s) (fun () ->
        members_settled h.h_cluster)
  in
  Invariants.check h.h_inv;
  if settled then Invariants.check_converged h.h_inv;
  {
    c_scenario = scenario;
    c_seed = seed;
    c_reconfigs = reconfigs;
    c_replacements = replacements;
    c_committed = Invariants.max_committed h.h_inv;
    c_workload_committed =
      (Workload.Generator.stats h.h_gen).Workload.Generator.committed;
    c_converged = settled;
    c_violations = Invariants.violations h.h_inv;
    c_metrics =
      Obs.Metrics.merge_all ~node:"churn"
        (Myraft.Cluster.metrics_snapshot h.h_cluster :: extra_metrics);
  }

(* ----- scenario 1: rolling region evacuation ----- *)

let rolling_evacuation ~seed =
  let h = classic_harness ~seed in
  Myraft.Cluster.run_for h.h_cluster (2.0 *. s);
  let reconfigs = ref 0 in
  (match leader_raft h.h_cluster with
  | None -> Invariants.report h.h_inv ~invariant:"evacuation" ~detail:"no leader"
  | Some leader ->
    (* Target: every r3 member replaced by a fresh same-kind node in the
       brand-new region r4, voter grades preserved. *)
    let target =
      {
        Raft.Types.members =
          List.concat_map
            (fun m ->
              if m.Raft.Types.region = "r3" then
                [ { m with Raft.Types.id = m.Raft.Types.id ^ "-evac"; region = "r4" } ]
              else [ m ])
            (Raft.Types.config_members (Raft.Node.config leader));
      }
    in
    match
      Reconfig.Healer.apply_target h.h_cluster ~target ~on_step:(fun _ ->
          incr reconfigs;
          sync_probes h.h_inv h.h_cluster;
          Invariants.check h.h_inv)
    with
    | Ok _ -> ()
    | Error e ->
      Invariants.report h.h_inv ~invariant:"evacuation" ~detail:("did not complete: " ^ e));
  (* The evacuated region must be fully gone from the membership. *)
  (match Reconfig.Healer.newest_config h.h_cluster with
  | Some cfg when List.exists (fun m -> m.Raft.Types.region = "r3") (Raft.Types.config_members cfg)
    ->
    Invariants.report h.h_inv ~invariant:"evacuation"
      ~detail:"r3 members remain after evacuation"
  | _ -> ());
  finish h ~scenario:"evacuation" ~seed ~reconfigs:!reconfigs ~replacements:[]
    ~extra_metrics:[]

(* ----- scenario 2: replace while partitioned ----- *)

let replace_while_partitioned ~seed =
  let h = classic_harness ~seed in
  let cluster = h.h_cluster in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  let net = Myraft.Cluster.network cluster in
  (* r2 loses contact with the rest of the world... *)
  Sim.Network.cut_regions net "r1" "r2";
  Sim.Network.cut_regions net "r3" "r2";
  (* ...and a voter in r3 dies for good. *)
  Myraft.Cluster.crash cluster "lt3a";
  let healer =
    Reconfig.Healer.start ~check_interval:(0.25 *. s) ~dead_after:(2.0 *. s) cluster
  in
  let deadline = Myraft.Cluster.now cluster +. (60.0 *. s) in
  while
    Reconfig.Healer.replacements healer = []
    && Myraft.Cluster.now cluster < deadline
  do
    Myraft.Cluster.run_for cluster (0.25 *. s);
    sync_probes h.h_inv cluster;
    Invariants.check h.h_inv
  done;
  if Reconfig.Healer.replacements healer = [] then
    Invariants.report h.h_inv ~invariant:"self-healing"
      ~detail:"replacement did not complete while partitioned";
  Reconfig.Healer.stop healer;
  Sim.Network.heal_regions net "r1" "r2";
  Sim.Network.heal_regions net "r3" "r2";
  let replacements =
    List.map
      (fun r -> (r.Reconfig.Healer.r_corpse, r.Reconfig.Healer.r_replacement))
      (Reconfig.Healer.replacements healer)
  in
  finish h ~scenario:"replace-partitioned" ~seed
    ~reconfigs:(3 * List.length replacements)
    ~replacements
    ~extra_metrics:[ Reconfig.Healer.metrics_snapshot healer ]

(* ----- scenario 3: membership churn under election storms ----- *)

let storm_spec =
  {
    Schedule.default with
    Schedule.mix =
      [
        (Schedule.Election_storm, 2.0);
        (Schedule.Leader_crash, 1.0);
        (Schedule.Graceful_transfer, 1.0);
      ];
    inject_p = 0.5;
  }

(* One churn cycle: toggle an existing voter through learner and back,
   then walk an extra node through its whole life (join as learner,
   promote, demote, remove).  Every op is retried until the leader of
   the moment accepts it — "change already in progress" and "not the
   leader" are normal weather under storms. *)
let cycle_ops cluster n =
  let extra = Printf.sprintf "churn-extra%d" n in
  [
    (fun l -> Raft.Node.demote_voter l "lt2b");
    (fun l -> Raft.Node.promote_learner l "lt2b");
    (fun l ->
      if Myraft.Cluster.node cluster extra = None then
        Myraft.Cluster.add_server cluster (Myraft.Cluster.mysql ~voter:false extra "r1");
      Raft.Node.add_member l
        {
          Raft.Types.id = extra;
          region = "r1";
          voter = false;
          kind = Raft.Types.Mysql_server;
        });
    (fun l -> Raft.Node.promote_learner l extra);
    (fun l -> Raft.Node.demote_voter l extra);
    (fun l -> Raft.Node.remove_member l extra);
  ]

let storm_churn ~seed =
  let h = classic_harness ~seed in
  let cluster = h.h_cluster in
  let nemesis =
    Nemesis.create
      ~engine:(Myraft.Cluster.engine cluster)
      ~trace:(Myraft.Cluster.trace cluster)
      ~rng:(Sim.Rng.of_int (seed lxor 0x6368726e))
      ~spec:storm_spec
      ~ops:(Nemesis.ops_of_cluster cluster)
  in
  let queue = ref [] in
  let cycle = ref 0 in
  let applied = ref 0 in
  let churn_step () =
    (if !queue = [] then begin
       incr cycle;
       queue := cycle_ops cluster !cycle
     end);
    match leader_raft cluster with
    | Some leader when not (Raft.Node.has_pending_config_change leader) -> (
      match !queue with
      | op :: rest -> (
        match op leader with
        | Ok _ ->
          incr applied;
          queue := rest
        | Error _ -> () (* retried next step *))
      | [] -> ())
    | _ -> ()
  in
  for _ = 1 to 60 do
    Nemesis.step nemesis;
    churn_step ();
    Myraft.Cluster.run_for cluster (0.25 *. s);
    sync_probes h.h_inv cluster;
    Invariants.check h.h_inv
  done;
  Nemesis.heal_now nemesis;
  finish h ~scenario:"storm-churn" ~seed ~reconfigs:!applied ~replacements:[]
    ~extra_metrics:[ Nemesis.metrics_snapshot nemesis ]

(* ----- sharded: per-group membership churn ----- *)

(* Every group cycles a voter through learner grade and back on its own
   schedule — group g works on a different member than group g+1 at any
   instant, so the deployment always has groups mid-reconfig while
   others are stable.  Gates: per-group invariants (incl. the config
   oracles), per-group convergence, and every group having committed its
   full quota of changes. *)
let sharded_churn ~seed =
  let groups = 3 and cycles = 4 in
  let multi =
    Shard.Multi.create ~seed ~members:(Nemesis.chaos_members ()) ~groups ()
  in
  Shard.Multi.bootstrap multi;
  let backend = Shard.Multi.backend multi in
  let gen =
    Workload.Generator.create ~backend ~client_id:"churn-client" ~region:"r1" ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:100.0;
  let invs =
    List.map
      (fun c ->
        Invariants.create
          ~snapshot:(fun () -> Myraft.Cluster.metrics_snapshot c)
          ~now:(fun () -> Myraft.Cluster.now c)
          ~probes:(Nemesis.probes_of_cluster c) ())
      (Shard.Multi.clusters multi)
  in
  let check_all () = List.iter Invariants.check invs in
  (* group g toggles lt2b or lt3b depending on parity, voters first *)
  let victims = [| "lt2b"; "lt3b" |] in
  let wanted = 2 * cycles in
  let applied = Array.make groups 0 in
  let steps = ref 0 in
  let max_steps = 80 * cycles in
  while Array.exists (fun a -> a < wanted) applied && !steps < max_steps do
    incr steps;
    List.iteri
      (fun g c ->
        if applied.(g) < wanted then
          match
            match Myraft.Cluster.raft_leader c with
            | Some id -> Myraft.Cluster.raft_of c id
            | None -> None
          with
          | Some leader when not (Raft.Node.has_pending_config_change leader) ->
            let victim = victims.((g + (applied.(g) / 2)) mod 2) in
            let result =
              if applied.(g) mod 2 = 0 then Raft.Node.demote_voter leader victim
              else Raft.Node.promote_learner leader victim
            in
            (match result with
            | Ok _ -> applied.(g) <- applied.(g) + 1
            | Error _ -> ())
          | _ -> ())
      (Shard.Multi.clusters multi);
    Shard.Multi.run_for multi (0.25 *. s);
    check_all ()
  done;
  Workload.Generator.stop gen;
  let settled =
    Shard.Multi.run_until multi ~timeout:(60.0 *. s) (fun () ->
        List.for_all members_settled (Shard.Multi.clusters multi))
  in
  check_all ();
  if settled then List.iter Invariants.check_converged invs;
  let total_applied = Array.fold_left ( + ) 0 applied in
  let violations = List.concat_map Invariants.violations invs in
  let violations =
    if Array.exists (fun a -> a < wanted) applied then
      {
        Invariants.v_time = Shard.Multi.now multi;
        v_invariant = "sharded-churn";
        v_detail = "some group did not complete its churn quota";
        v_metrics = None;
      }
      :: violations
    else violations
  in
  {
    c_scenario = Printf.sprintf "sharded-churn[%d groups]" groups;
    c_seed = seed;
    c_reconfigs = total_applied;
    c_replacements = [];
    c_committed =
      List.fold_left (fun acc inv -> max acc (Invariants.max_committed inv)) 0 invs;
    c_workload_committed = (Workload.Generator.stats gen).Workload.Generator.committed;
    c_converged = settled;
    c_violations = violations;
    c_metrics = Shard.Multi.metrics_snapshot multi;
  }

(* ----- the CI sweep ----- *)

let scenarios =
  [
    ("evacuation", fun seed -> rolling_evacuation ~seed);
    ("replace-partitioned", fun seed -> replace_while_partitioned ~seed);
    ("storm-churn", fun seed -> storm_churn ~seed);
    ("sharded-churn", fun seed -> sharded_churn ~seed);
  ]

let run_scenario ~name ~seed =
  match List.assoc_opt name scenarios with
  | Some f -> Ok (f seed)
  | None -> Error (Printf.sprintf "unknown churn scenario %S" name)

let scenario_names = List.map fst scenarios

(* Classic + sharded membership-churn legs for the chaos-smoke gate:
   every scenario over every seed. *)
let sweep ~seeds () =
  List.concat_map (fun (_, f) -> List.map f seeds) scenarios
