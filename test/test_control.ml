(* Control-plane tests: enable-raft rollout, Quorum Fixer, member
   replacement automation, lock service. *)

let ms = Helpers.ms
let s = Helpers.s

let two_region_members () =
  [
    Myraft.Cluster.mysql "mysql1" "r1";
    Myraft.Cluster.logtailer "lt1a" "r1";
    Myraft.Cluster.logtailer "lt1b" "r1";
    Myraft.Cluster.mysql "mysql2" "r2";
    Myraft.Cluster.logtailer "lt2a" "r2";
    Myraft.Cluster.logtailer "lt2b" "r2";
  ]

(* ----- lock service ----- *)

let test_lock_exclusive () =
  let engine = Sim.Engine.create () in
  let locks = Control.Lock_service.create engine in
  let r1 = ref None and r2 = ref None in
  Control.Lock_service.acquire locks ~name:"rs1" ~owner:"tool-a" (fun r -> r1 := Some r);
  Sim.Engine.run_for engine (1.0 *. s);
  Control.Lock_service.acquire locks ~name:"rs1" ~owner:"tool-b" (fun r -> r2 := Some r);
  Sim.Engine.run_for engine (1.0 *. s);
  Alcotest.(check bool) "first acquires" true (!r1 = Some (Ok ()));
  Alcotest.(check bool) "second denied" true (match !r2 with Some (Error _) -> true | _ -> false);
  Alcotest.(check bool) "release by non-holder fails" true
    (Result.is_error (Control.Lock_service.release locks ~name:"rs1" ~owner:"tool-b"));
  Alcotest.(check bool) "release by holder ok" true
    (Result.is_ok (Control.Lock_service.release locks ~name:"rs1" ~owner:"tool-a"))

(* ----- enable-raft ----- *)

let test_enable_raft_migrates () =
  let members = two_region_members () in
  let ss = Semisync.Cluster.create ~seed:5 ~replicaset:"rs-mig" ~members () in
  Semisync.Cluster.bootstrap ss ~leader_id:"mysql1";
  (* some committed history to migrate *)
  let primary = Option.get (Semisync.Cluster.primary ss) in
  let written = ref 0 in
  for i = 1 to 20 do
    Semisync.Server.submit_write primary ~table:"t"
      ~ops:[ Binlog.Event.Insert { key = Printf.sprintf "k%d" i; value = "v" } ]
      ~reply:(fun gtid -> if gtid <> None then incr written)
  done;
  ignore (Semisync.Cluster.run_until ss ~timeout:(10.0 *. s) (fun () -> !written = 20));
  let locks = Control.Lock_service.create (Semisync.Cluster.engine ss) in
  match Control.Enable_raft.run ~members ~lock_service:locks ss with
  | Error e -> Alcotest.failf "enable-raft: %s" e
  | Ok (cluster, report) ->
    Alcotest.(check int) "all txns migrated" 20
      report.Control.Enable_raft.transactions_migrated;
    Alcotest.(check bool) "unavailability bounded (< 5s)" true
      (report.Control.Enable_raft.write_unavailability_us < 5.0 *. s);
    (* data survived with GTIDs intact and the ring is writable *)
    let new_primary = Option.get (Myraft.Cluster.primary cluster) in
    Alcotest.(check string) "same primary" "mysql1" (Myraft.Server.id new_primary);
    Alcotest.(check (option string)) "migrated row present" (Some "v")
      (Storage.Engine.get (Myraft.Server.storage new_primary) ~table:"t" ~key:"k13");
    Alcotest.(check bool) "gtids preserved" true
      (Binlog.Gtid_set.contains
         (Myraft.Server.gtid_executed new_primary)
         (Binlog.Gtid.make ~source:"mysql1" ~gno:20));
    Helpers.check_ok "write on converted ring"
      (Helpers.direct_write cluster ~key:"post" ~value:"raft")

let test_enable_raft_refuses_unhealthy () =
  let members = two_region_members () in
  let ss = Semisync.Cluster.create ~seed:6 ~replicaset:"rs-bad" ~members () in
  Semisync.Cluster.bootstrap ss ~leader_id:"mysql1";
  Semisync.Cluster.crash ss "mysql2";
  let locks = Control.Lock_service.create (Semisync.Cluster.engine ss) in
  match Control.Enable_raft.run ~members ~lock_service:locks ss with
  | Error e ->
    Alcotest.(check bool) "safety check refused" true (Helpers.contains e "safety")
  | Ok _ -> Alcotest.fail "enable-raft ran on an unhealthy replicaset"

(* ----- quorum fixer ----- *)

let shattered_cluster () =
  let cluster =
    Helpers.bootstrapped ~members:(two_region_members ()) ()
  in
  ignore (Helpers.write_n cluster 5);
  (* correlated failure of the data quorum: the leader and one in-region
     logtailer die together *)
  Myraft.Cluster.crash cluster "mysql1";
  Myraft.Cluster.crash cluster "lt1a";
  Myraft.Cluster.run_for cluster (10.0 *. s);
  cluster

let test_quorum_fixer_restores_leader () =
  let cluster = shattered_cluster () in
  Alcotest.(check (option string)) "shattered: no leader" None
    (Myraft.Cluster.raft_leader cluster);
  (match Control.Quorum_fixer.run cluster with
  | Ok report ->
    (* lt1b has the longest log (it acked the committed writes) *)
    Alcotest.(check string) "chose the longest log" "lt1b"
      report.Control.Quorum_fixer.chosen
  | Error e -> Alcotest.failf "quorum fixer: %s" e);
  (* the logtailer interim leader hands off to a MySQL server and the
     ring becomes writable again *)
  let writable () =
    match Myraft.Cluster.primary cluster with Some _ -> true | None -> false
  in
  Alcotest.(check bool) "ring writable again" true
    (Myraft.Cluster.run_until cluster ~timeout:(60.0 *. s) writable);
  (* committed writes survived the incident *)
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  Alcotest.(check (option string)) "committed data intact" (Some "v")
    (Storage.Engine.get (Myraft.Server.storage primary) ~table:"t" ~key:"k3")

let test_quorum_fixer_conservative_mode () =
  let cluster = Helpers.bootstrapped ~members:(two_region_members ()) () in
  match Control.Quorum_fixer.run cluster with
  | Error e -> Alcotest.(check bool) "refuses healthy ring" true (Helpers.contains e "leader")
  | Ok _ -> Alcotest.fail "quorum fixer acted on a healthy ring"

(* ----- automation ----- *)

let test_replace_member () =
  let cluster = Helpers.bootstrapped ~members:(two_region_members ()) () in
  ignore (Helpers.write_n cluster 5);
  Myraft.Cluster.crash cluster "lt2a";
  Myraft.Cluster.run_for cluster (2.0 *. s);
  (match Control.Automation.replace_member cluster ~dead:"lt2a" ~replacement_id:"lt2c" with
  | Ok r ->
    Alcotest.(check string) "removed" "lt2a" r.Control.Automation.removed;
    Alcotest.(check string) "added" "lt2c" r.Control.Automation.added
  | Error e -> Alcotest.failf "replace: %s" e);
  (* the replacement is a voter in everyone's config and caught up *)
  let leader = Option.get (Myraft.Cluster.raft_leader cluster) in
  let cfg = Raft.Node.config (Option.get (Myraft.Cluster.raft_of cluster leader)) in
  Alcotest.(check bool) "lt2c in config" true (Raft.Types.is_member cfg "lt2c");
  Alcotest.(check bool) "lt2a gone" false (Raft.Types.is_member cfg "lt2a");
  Helpers.check_ok "ring still writable" (Helpers.direct_write cluster ~key:"post" ~value:"v")

let test_replace_unknown_member_fails () =
  let cluster = Helpers.bootstrapped ~members:(two_region_members ()) () in
  match Control.Automation.replace_member cluster ~dead:"ghost" ~replacement_id:"x" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replaced a non-member"

let leader_node cluster =
  Option.get (Myraft.Cluster.raft_of cluster (Option.get (Myraft.Cluster.raft_leader cluster)))

let voter_count cfg = List.length (Raft.Types.voters cfg)

let test_replace_with_existing_id_fails () =
  let cluster = Helpers.bootstrapped ~members:(two_region_members ()) () in
  ignore (Helpers.write_n cluster 3);
  Myraft.Cluster.crash cluster "lt2a";
  Myraft.Cluster.run_for cluster (2.0 *. s);
  let leader = leader_node cluster in
  let before = Raft.Node.config leader and before_id = Raft.Node.config_id leader in
  (match Control.Automation.replace_member cluster ~dead:"lt2a" ~replacement_id:"lt1b" with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "replaced onto an existing member id");
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let after = leader_node cluster in
  Alcotest.(check bool) "same members" true
    (Raft.Types.same_members before (Raft.Node.config after));
  Alcotest.(check bool) "config identity unchanged" true
    (Raft.Node.config_id after = before_id)

(* A learner corpse is swapped for a learner: the newcomer is never
   promoted and the voter set never moves. *)
let test_replace_learner_with_learner () =
  let members = two_region_members () @ [ Myraft.Cluster.mysql ~voter:false "mysql3" "r2" ] in
  let cluster = Helpers.bootstrapped ~members () in
  ignore (Helpers.write_n cluster 5);
  Myraft.Cluster.crash cluster "mysql3";
  Myraft.Cluster.run_for cluster (2.0 *. s);
  let leader = leader_node cluster in
  let voters_before = List.sort compare (Raft.Types.voter_ids (Raft.Node.config leader)) in
  let installed = ref [] in
  Raft.Node.subscribe_config_change leader (fun cfg -> installed := cfg :: !installed);
  (match Control.Automation.replace_member cluster ~dead:"mysql3" ~replacement_id:"mysql3b" with
  | Ok r -> Alcotest.(check string) "added" "mysql3b" r.Control.Automation.added
  | Error e -> Alcotest.failf "replace: %s" e);
  Alcotest.(check bool) "configs observed" true (!installed <> []);
  List.iter
    (fun cfg ->
      Alcotest.(check (list string)) "voter set never moves" voters_before
        (List.sort compare (Raft.Types.voter_ids cfg)))
    !installed;
  let cfg = Raft.Node.config (leader_node cluster) in
  (match Raft.Types.find_member cfg "mysql3b" with
  | Some m -> Alcotest.(check bool) "newcomer is a learner" false m.Raft.Types.voter
  | None -> Alcotest.fail "newcomer not in config");
  Alcotest.(check bool) "corpse gone" false (Raft.Types.is_member cfg "mysql3")

(* Redundancy-first: across a voter swap, no config the leader installs
   has fewer voters than the ring started with. *)
let test_voter_swap_never_dips () =
  let cluster = Helpers.bootstrapped ~members:(two_region_members ()) () in
  ignore (Helpers.write_n cluster 5);
  Myraft.Cluster.crash cluster "lt2a";
  Myraft.Cluster.run_for cluster (2.0 *. s);
  let leader = leader_node cluster in
  let start = voter_count (Raft.Node.config leader) in
  let installed = ref [] in
  Raft.Node.subscribe_config_change leader (fun cfg -> installed := cfg :: !installed);
  (match Control.Automation.replace_member cluster ~dead:"lt2a" ~replacement_id:"lt2c" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "replace: %s" e);
  (* learner add, promote, demote, remove *)
  Alcotest.(check int) "one config per planned step" 4 (List.length !installed);
  List.iter
    (fun cfg ->
      if voter_count cfg < start then
        Alcotest.failf "voters dipped to %d (start %d)" (voter_count cfg) start)
    !installed;
  Alcotest.(check int) "voter count restored" start
    (voter_count (Raft.Node.config (leader_node cluster)))

(* ----- shard-leader rebalancer ----- *)

(* A synthetic deployment: leaders live in refs, transfers mutate them
   (or fail, modeling a group that is mid-reconfig). *)
let mk_groups ?(reconfiguring = []) ~leaders ~candidates ~region_of () =
  List.mapi
    (fun i leader ->
      {
        Control.Rebalance.g_index = i;
        g_leader = (fun () -> !leader);
        g_region_of = (fun n -> List.assoc_opt n region_of);
        g_candidates = (fun () -> candidates);
        g_transfer =
          (fun ~target ->
            if List.mem i reconfiguring then Error "membership change in progress"
            else begin
              leader := Some target;
              Ok ()
            end);
      })
    leaders

let three_region_nodes = [ ("n1", "r1"); ("n2", "r2"); ("n3", "r3") ]

let test_rebalance_spreads_across_regions () =
  (* all six leaders piled on one node *)
  let leaders = List.init 6 (fun _ -> ref (Some "n1")) in
  let groups =
    mk_groups ~leaders ~candidates:[ "n1"; "n2"; "n3" ] ~region_of:three_region_nodes ()
  in
  let plan, errors = Control.Rebalance.rebalance ~groups in
  Alcotest.(check (list (pair int string))) "no transfer errors" [] errors;
  Alcotest.(check bool) "had to move" false plan.Control.Rebalance.balanced;
  let count node =
    List.length (List.filter (fun l -> !l = Some node) leaders)
  in
  List.iter
    (fun (n, _) -> Alcotest.(check int) ("two leaders on " ^ n) 2 (count n))
    three_region_nodes

let test_rebalance_noop_when_balanced () =
  let leaders = [ ref (Some "n1"); ref (Some "n2"); ref (Some "n3") ] in
  let groups =
    mk_groups ~leaders ~candidates:[ "n1"; "n2"; "n3" ] ~region_of:three_region_nodes ()
  in
  (* settle to the deterministic desired placement... *)
  ignore (Control.Rebalance.rebalance ~groups);
  (* ...after which another pass must not move anything (no oscillation) *)
  let before = List.map (fun l -> !l) leaders in
  let plan, errors = Control.Rebalance.rebalance ~groups in
  Alcotest.(check (list (pair int string))) "no errors" [] errors;
  Alcotest.(check bool) "balanced" true plan.Control.Rebalance.balanced;
  Alcotest.(check int) "no moves" 0 (List.length plan.Control.Rebalance.moves);
  Alcotest.(check bool) "leaders untouched" true (before = List.map (fun l -> !l) leaders)

(* A group whose transfer is refused (membership change in flight)
   reports the error without derailing the other groups' moves. *)
let test_rebalance_skips_reconfiguring_group () =
  let leaders = List.init 3 (fun _ -> ref (Some "n1")) in
  let groups =
    mk_groups ~reconfiguring:[ 1 ] ~leaders ~candidates:[ "n1"; "n2"; "n3" ]
      ~region_of:three_region_nodes ()
  in
  let plan, errors = Control.Rebalance.rebalance ~groups in
  Alcotest.(check bool) "plan wanted moves" false plan.Control.Rebalance.balanced;
  (match errors with
  | [ (1, reason) ] ->
    Alcotest.(check bool) "reason surfaced" true
      (Helpers.contains reason "membership change")
  | other -> Alcotest.failf "expected exactly group 1 to fail, got %d errors"
               (List.length other));
  (* the groups that could move did *)
  let moved =
    List.filter
      (fun l -> !l <> Some "n1")
      [ List.nth leaders 0; List.nth leaders 2 ]
  in
  Alcotest.(check bool) "other groups progressed" true (moved <> [])

let suites =
  [
    ( "control.lock",
      [ Alcotest.test_case "exclusive acquire/release" `Quick test_lock_exclusive ] );
    ( "control.enable_raft",
      [
        Alcotest.test_case "migrates a replicaset" `Quick test_enable_raft_migrates;
        Alcotest.test_case "refuses unhealthy replicaset" `Quick
          test_enable_raft_refuses_unhealthy;
      ] );
    ( "control.quorum_fixer",
      [
        Alcotest.test_case "restores a shattered quorum" `Quick
          test_quorum_fixer_restores_leader;
        Alcotest.test_case "conservative on healthy ring" `Quick
          test_quorum_fixer_conservative_mode;
      ] );
    ( "control.automation",
      [
        Alcotest.test_case "replace member" `Quick test_replace_member;
        Alcotest.test_case "unknown member rejected" `Quick test_replace_unknown_member_fails;
        Alcotest.test_case "existing replacement id rejected" `Quick
          test_replace_with_existing_id_fails;
        Alcotest.test_case "learner replaced by learner" `Quick test_replace_learner_with_learner;
        Alcotest.test_case "voter swap never dips below start" `Quick test_voter_swap_never_dips;
      ] );
    ( "control.rebalance",
      [
        Alcotest.test_case "spreads leaders across regions" `Quick
          test_rebalance_spreads_across_regions;
        Alcotest.test_case "no-op when balanced" `Quick test_rebalance_noop_when_balanced;
        Alcotest.test_case "mid-reconfig group skipped, others move" `Quick
          test_rebalance_skips_reconfiguring_group;
      ] );
  ]
