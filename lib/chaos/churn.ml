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

   Every scenario runs on the chaos runner's harness ({!Nemesis.start},
   {!Nemesis.check}, {!Nemesis.settle}), whose probes are
   membership-aware: replacements are brand-new nodes and gain a probe
   at the next check, and evicted members leave the convergence check. *)

let s = Sim.Engine.s

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

(* ----- the harness ----- *)

let classic_harness ~seed =
  let cluster =
    Myraft.Cluster.create ~seed ~replicaset:"churn" ~members:(Nemesis.chaos_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"my1";
  Nemesis.start (Nemesis.of_cluster cluster) ~client_id:"churn-client" ~rate_per_s:100.0

(* The first group's cluster and checker (a classic harness has one). *)
let cluster_of (h : Nemesis.harness) = List.hd h.dep.groups

let inv_of (h : Nemesis.harness) = List.hd h.invs

let finish h ~scenario ~seed ~reconfigs ~replacements ~extra_metrics =
  let converged = Nemesis.settle h in
  {
    c_scenario = scenario;
    c_seed = seed;
    c_reconfigs = reconfigs;
    c_replacements = replacements;
    c_committed = Nemesis.max_committed h;
    c_workload_committed = Nemesis.client_commits h;
    c_converged = converged;
    c_violations = Nemesis.violations h;
    c_metrics = Obs.Metrics.merge_all ~node:"churn" (h.dep.metrics () :: extra_metrics);
  }

(* ----- scenario 1: rolling region evacuation ----- *)

let rolling_evacuation ~seed =
  let h = classic_harness ~seed in
  let cluster = cluster_of h in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  let reconfigs = ref 0 in
  (match Myraft.Cluster.leader_raft cluster with
  | None -> Invariants.report (inv_of h) ~invariant:"evacuation" ~detail:"no leader"
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
      Reconfig.Healer.apply_target cluster ~target ~on_step:(fun _ ->
          incr reconfigs;
          Nemesis.check h)
    with
    | Ok _ -> ()
    | Error e ->
      Invariants.report (inv_of h) ~invariant:"evacuation"
        ~detail:("did not complete: " ^ e));
  (* The evacuated region must be fully gone from the membership. *)
  (match Reconfig.Healer.newest_config cluster with
  | Some cfg when List.exists (fun m -> m.Raft.Types.region = "r3") (Raft.Types.config_members cfg)
    ->
    Invariants.report (inv_of h) ~invariant:"evacuation"
      ~detail:"r3 members remain after evacuation"
  | _ -> ());
  finish h ~scenario:"evacuation" ~seed ~reconfigs:!reconfigs ~replacements:[]
    ~extra_metrics:[]

(* ----- scenario 2: replace while partitioned ----- *)

let replace_while_partitioned ~seed =
  let h = classic_harness ~seed in
  let cluster = cluster_of h in
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
    Nemesis.check h
  done;
  if Reconfig.Healer.replacements healer = [] then
    Invariants.report (inv_of h) ~invariant:"self-healing"
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
  let cluster = cluster_of h in
  let nemesis =
    Nemesis.create
      ~engine:(Myraft.Cluster.engine cluster)
      ~trace:(Myraft.Cluster.trace cluster)
      ~rng:(Sim.Rng.of_int (seed lxor 0x6368726e))
      ~spec:storm_spec
      ~ops:h.dep.ops
  in
  let queue = ref [] in
  let cycle = ref 0 in
  let applied = ref 0 in
  let churn_step () =
    (if !queue = [] then begin
       incr cycle;
       queue := cycle_ops cluster !cycle
     end);
    match Myraft.Cluster.leader_raft cluster with
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
    Nemesis.check h
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
  let h =
    Nemesis.start (Nemesis.of_multi multi) ~client_id:"churn-client" ~rate_per_s:100.0
  in
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
          match Myraft.Cluster.leader_raft c with
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
      h.dep.groups;
    Myraft.Cluster.run_for (cluster_of h) (0.25 *. s);
    Nemesis.check h
  done;
  if Array.exists (fun a -> a < wanted) applied then
    Invariants.report (inv_of h) ~invariant:"sharded-churn"
      ~detail:"some group did not complete its churn quota";
  finish h
    ~scenario:(Printf.sprintf "sharded-churn[%d groups]" groups)
    ~seed
    ~reconfigs:(Array.fold_left ( + ) 0 applied)
    ~replacements:[] ~extra_metrics:[]

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
