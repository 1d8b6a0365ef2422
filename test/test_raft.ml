(* Raft protocol tests over a harness of bare Raft nodes (plain log
   stores, no MySQL): elections, replication, FlexiRaft quorums,
   proxying, mock elections, membership changes, and randomized safety
   checks. *)

let ms = Sim.Engine.ms
let s = Sim.Engine.s

type sim_node = {
  id : string;
  node_region : string;
  store : Binlog.Log_store.t;
  durable : Raft.Node.durable;
  mutable raft : Raft.Node.t option;
  mutable leader_terms : int list; (* terms at which this node became leader *)
  mutable truncations : int; (* entries truncated *)
  mutable committed_watermark : int;
  mutable transfer_aborts : int; (* on_transfer_aborted callbacks *)
  mutable up : bool;
}

type harness = {
  engine : Sim.Engine.t;
  net : Raft.Message.t Sim.Network.t;
  nodes : (string, sim_node) Hashtbl.t;
  order : string list;
  config : Raft.Types.config;
  params : Raft.Node.params;
  trace : Sim.Trace.t;
}

let raft n = Option.get n.raft

let make_raft h n =
  let callbacks = Raft.Node.default_callbacks () in
  let node =
    Raft.Node.create ~engine:h.engine ~id:n.id ~region:n.node_region
      ~send:(fun ~dst msg ->
        Sim.Network.send h.net ~src:n.id ~dst ~size:(Raft.Message.size msg) msg)
      ~log:n.store ~callbacks ~params:h.params ~initial_config:h.config ~durable:n.durable
      ~trace:h.trace ()
  in
  callbacks.Raft.Node.on_leader_start <-
    (fun ~noop_index:_ -> n.leader_terms <- Raft.Node.current_term node :: n.leader_terms);
  callbacks.Raft.Node.on_truncated <-
    (fun removed -> n.truncations <- n.truncations + List.length removed);
  callbacks.Raft.Node.on_commit_advance <-
    (fun ~commit_index -> n.committed_watermark <- max n.committed_watermark commit_index);
  callbacks.Raft.Node.on_transfer_aborted <-
    (fun ~reason:_ -> n.transfer_aborts <- n.transfer_aborts + 1);
  node

(* members: (id, region, voter, kind) *)
let make_harness ?(seed = 5) ?(params = Raft.Node.default_params) members =
  let engine = Sim.Engine.create ~seed () in
  let topo = Sim.Topology.create () in
  List.iter (fun (id, region, _, _) -> Sim.Topology.add_node topo ~id ~region) members;
  let net = Sim.Network.create engine topo () in
  let trace = Sim.Trace.create engine in
  let config =
    {
      Raft.Types.members =
        List.map
          (fun (id, region, voter, kind) -> { Raft.Types.id; region; voter; kind })
          members;
    }
  in
  let h =
    { engine; net; nodes = Hashtbl.create 8; order = List.map (fun (id, _, _, _) -> id) members;
      config; params; trace }
  in
  List.iter
    (fun (id, region, _, _) ->
      let n =
        {
          id;
          node_region = region;
          store = Binlog.Log_store.create ~mode:Binlog.Log_store.Relay ();
          durable = Raft.Node.fresh_durable ();
          raft = None;
          leader_terms = [];
          truncations = 0;
          committed_watermark = 0;
          transfer_aborts = 0;
          up = true;
        }
      in
      n.raft <- Some (make_raft h n);
      Hashtbl.replace h.nodes id n;
      Sim.Network.register net id (fun ~src msg ->
          match Hashtbl.find_opt h.nodes id with
          | Some n when n.up -> Raft.Node.handle_message (raft n) ~src msg
          | _ -> ()))
    members;
  h

let get h id = Hashtbl.find h.nodes id

let crash h id =
  let n = get h id in
  n.up <- false;
  Raft.Node.stop (raft n);
  Sim.Network.set_down h.net id

let restart h id =
  let n = get h id in
  n.up <- true;
  (* same restart semantics as a real server: unsynced tail may be torn *)
  ignore (Binlog.Log_store.crash_recover_log n.store);
  n.raft <- Some (make_raft h n);
  Sim.Network.set_up h.net id

let leaders h =
  List.filter
    (fun id ->
      let n = get h id in
      n.up && Raft.Node.is_leader (raft n))
    h.order

let run_until h ~timeout pred =
  let deadline = Sim.Engine.now h.engine +. timeout in
  let rec loop () =
    if pred () then true
    else if Sim.Engine.now h.engine >= deadline then false
    else begin
      Sim.Engine.run_for h.engine (10.0 *. ms);
      loop ()
    end
  in
  loop ()

let elect h id =
  Raft.Node.trigger_election (raft (get h id));
  let ok = run_until h ~timeout:(10.0 *. s) (fun () -> leaders h = [ id ]) in
  if not ok then Alcotest.failf "failed to elect %s" id

let append h id =
  match Raft.Node.client_append (raft (get h id)) Binlog.Entry.Noop with
  | Ok opid -> opid
  | Error e -> Alcotest.failf "append on %s failed: %s" id e

let mysql = Raft.Types.Mysql_server
let tailer = Raft.Types.Logtailer

let three_nodes () =
  [ ("n1", "r1", true, mysql); ("n2", "r1", true, mysql); ("n3", "r1", true, mysql) ]

let majority_params =
  { Raft.Node.default_params with quorum_mode = Raft.Quorum.Majority; proxying = false }

(* ----- basic elections ----- *)

let test_single_leader_emerges () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  let ok = run_until h ~timeout:(10.0 *. s) (fun () -> List.length (leaders h) = 1) in
  Alcotest.(check bool) "one leader" true ok;
  (* followers agree on who the leader is *)
  let leader = List.hd (leaders h) in
  Sim.Engine.run_for h.engine (2.0 *. s);
  List.iter
    (fun id ->
      Alcotest.(check (option string))
        (id ^ " knows leader")
        (Some leader)
        (Raft.Node.leader_id (raft (get h id))))
    h.order

let test_single_node_ring () =
  let h = make_harness ~params:majority_params [ ("n1", "r1", true, mysql) ] in
  let ok = run_until h ~timeout:(10.0 *. s) (fun () -> leaders h = [ "n1" ]) in
  Alcotest.(check bool) "self-elects" true ok;
  let opid = append h "n1" in
  Sim.Engine.run_for h.engine (100.0 *. ms);
  Alcotest.(check bool) "self-commits" true
    (Raft.Node.commit_index (raft (get h "n1")) >= Binlog.Opid.index opid)

let test_failover_elects_new_leader () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  crash h "n1";
  let ok =
    run_until h ~timeout:(15.0 *. s) (fun () ->
        match leaders h with [ l ] -> l <> "n1" | _ -> false)
  in
  Alcotest.(check bool) "new leader after crash" true ok

let test_old_leader_demotes_on_rejoin () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  (* Isolate rather than crash: the old leader keeps believing it leads
     (kuduraft has no auto step-down) until it hears a higher term. *)
  Sim.Network.isolate_node h.net "n1";
  let ok =
    run_until h ~timeout:(15.0 *. s) (fun () ->
        List.exists (fun id -> id <> "n1") (leaders h))
  in
  Alcotest.(check bool) "replacement elected" true ok;
  Alcotest.(check bool) "old leader still thinks it leads" true
    (Raft.Node.is_leader (raft (get h "n1")));
  Sim.Network.heal_node h.net "n1";
  let ok =
    run_until h ~timeout:(10.0 *. s) (fun () ->
        not (Raft.Node.is_leader (raft (get h "n1"))))
  in
  Alcotest.(check bool) "old leader fenced by term" true ok;
  Alcotest.(check int) "exactly one leader" 1 (List.length (leaders h))

let test_election_safety_terms_unique () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  crash h "n1";
  ignore (run_until h ~timeout:(15.0 *. s) (fun () -> leaders h <> []));
  restart h "n1";
  Sim.Engine.run_for h.engine (5.0 *. s);
  let all_terms =
    List.concat_map (fun id -> (get h id).leader_terms) h.order
  in
  let sorted = List.sort compare all_terms in
  Alcotest.(check (list int)) "no term elected two leaders" (List.sort_uniq compare sorted)
    sorted

(* ----- replication ----- *)

let test_replication_converges () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  for _ = 1 to 10 do
    ignore (append h "n1")
  done;
  let converged () =
    List.for_all
      (fun id ->
        let n = get h id in
        Binlog.Opid.index (Binlog.Log_store.last_opid n.store)
        = Binlog.Opid.index (Binlog.Log_store.last_opid (get h "n1").store)
        && Raft.Node.commit_index (raft n) = Raft.Node.commit_index (raft (get h "n1")))
      h.order
  in
  Alcotest.(check bool) "all logs converge" true (run_until h ~timeout:(10.0 *. s) converged);
  Alcotest.(check bool) "commit covers appends" true
    (Raft.Node.commit_index (raft (get h "n1")) >= 11 (* noop + 10 *))

let test_lagging_follower_catches_up () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  crash h "n3";
  for _ = 1 to 20 do
    ignore (append h "n1")
  done;
  Sim.Engine.run_for h.engine (2.0 *. s);
  restart h "n3";
  let target = Binlog.Opid.index (Binlog.Log_store.last_opid (get h "n1").store) in
  let ok =
    run_until h ~timeout:(15.0 *. s) (fun () ->
        Binlog.Opid.index (Binlog.Log_store.last_opid (get h "n3").store) = target)
  in
  Alcotest.(check bool) "restarted follower backfills" true ok

let test_uncommitted_suffix_truncated () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  ignore (append h "n1");
  Sim.Engine.run_for h.engine s;
  (* Writes that reach only the isolated leader's log must be truncated
     when it rejoins (§A.2 case 2). *)
  Sim.Network.isolate_node h.net "n1";
  Sim.Engine.run_for h.engine (50.0 *. ms);
  ignore (append h "n1");
  ignore (append h "n1");
  ignore
    (run_until h ~timeout:(15.0 *. s) (fun () ->
         List.exists (fun id -> id <> "n1") (leaders h)));
  (* new leader commits something of its own *)
  let new_leader = List.find (fun id -> id <> "n1") (leaders h) in
  ignore (append h new_leader);
  Sim.Network.heal_node h.net "n1";
  let n1 = get h "n1" in
  let ok =
    run_until h ~timeout:(15.0 *. s) (fun () ->
        n1.truncations >= 2
        && Binlog.Opid.index (Binlog.Log_store.last_opid n1.store)
           = Binlog.Opid.index (Binlog.Log_store.last_opid (get h new_leader).store))
  in
  Alcotest.(check bool) "suffix truncated and log converged" true ok

let test_committed_entries_never_lost () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  let opid = append h "n1" in
  let ok =
    run_until h ~timeout:(5.0 *. s) (fun () ->
        Raft.Node.commit_index (raft (get h "n1")) >= Binlog.Opid.index opid)
  in
  Alcotest.(check bool) "committed" true ok;
  crash h "n1";
  ignore
    (run_until h ~timeout:(15.0 *. s) (fun () ->
         List.exists (fun id -> id <> "n1") (leaders h)));
  let new_leader = List.hd (leaders h) in
  let entry = Binlog.Log_store.entry_at (get h new_leader).store (Binlog.Opid.index opid) in
  (match entry with
  | Some e ->
    Alcotest.(check int) "same term at committed index" (Binlog.Opid.term opid)
      (Binlog.Entry.term e)
  | None -> Alcotest.fail "committed entry missing from new leader")

(* ----- FlexiRaft ----- *)

let flexi_params =
  { Raft.Node.default_params with quorum_mode = Raft.Quorum.Single_region_dynamic;
    proxying = false }

let two_region_members () =
  [
    ("a1", "r1", true, mysql);
    ("a2", "r1", true, tailer);
    ("a3", "r1", true, tailer);
    ("b1", "r2", true, mysql);
    ("b2", "r2", true, tailer);
    ("b3", "r2", true, tailer);
  ]

let test_flexiraft_commits_in_region () =
  let h = make_harness ~params:flexi_params (two_region_members ()) in
  elect h "a1";
  Sim.Engine.run_for h.engine s;
  (* Cut off the remote region entirely: in-region data quorum must still
     commit (that is the whole point of single-region-dynamic, §4.1). *)
  Sim.Network.cut_regions h.net "r1" "r2";
  let opid = append h "a1" in
  let ok =
    run_until h ~timeout:(5.0 *. s) (fun () ->
        Raft.Node.commit_index (raft (get h "a1")) >= Binlog.Opid.index opid)
  in
  Alcotest.(check bool) "committed with only in-region acks" true ok

let test_majority_mode_blocks_across_partition () =
  let params = { flexi_params with quorum_mode = Raft.Quorum.Majority } in
  (* 2 voters in r1, 4 in r2: a majority (4/6) needs r2. *)
  let members =
    [
      ("a1", "r1", true, mysql);
      ("a2", "r1", true, tailer);
      ("b1", "r2", true, mysql);
      ("b2", "r2", true, mysql);
      ("b3", "r2", true, tailer);
      ("b4", "r2", true, tailer);
    ]
  in
  let h = make_harness ~params members in
  elect h "a1";
  Sim.Engine.run_for h.engine s;
  Sim.Network.cut_regions h.net "r1" "r2";
  let opid = append h "a1" in
  let committed =
    run_until h ~timeout:(5.0 *. s) (fun () ->
        Raft.Node.commit_index (raft (get h "a1")) >= Binlog.Opid.index opid)
  in
  Alcotest.(check bool) "majority mode cannot commit" false committed

let test_flexiraft_election_needs_last_leader_region () =
  let h = make_harness ~params:flexi_params (two_region_members ()) in
  elect h "a1";
  ignore (append h "a1");
  Sim.Engine.run_for h.engine s;
  (* Kill the entire leader region: r2 cannot form the intersection
     quorum (it needs a majority of r1, the last leader's region), so no
     leader can emerge — FlexiRaft chooses consistency (§4.1). *)
  crash h "a1";
  crash h "a2";
  crash h "a3";
  Sim.Engine.run_for h.engine (15.0 *. s);
  Alcotest.(check (list string)) "no leader electable" [] (leaders h);
  (* Healing a majority of r1's voters restores the intersection quorum
     (a candidate needs a majority of the last leader's region). *)
  restart h "a2";
  restart h "a3";
  let ok =
    run_until h ~timeout:(20.0 *. s) (fun () ->
        match leaders h with [ _ ] -> true | _ -> false)
  in
  Alcotest.(check bool) "leader after partial heal" true ok

let test_flexiraft_failover_within_leader_region () =
  let h = make_harness ~params:flexi_params (two_region_members ()) in
  elect h "a1";
  ignore (append h "a1");
  Sim.Engine.run_for h.engine s;
  crash h "a1";
  (* Election quorum: candidate region majority + last-leader region (r1)
     majority.  a2/a3 survive in r1, so a new leader can emerge; with the
     longest log it is typically an r1 logtailer. *)
  let ok =
    run_until h ~timeout:(15.0 *. s) (fun () ->
        match leaders h with [ l ] -> l <> "a1" | _ -> false)
  in
  Alcotest.(check bool) "failover succeeds" true ok

let test_quorum_unit_rules () =
  let cfg =
    {
      Raft.Types.members =
        List.map
          (fun (id, region, voter, kind) -> { Raft.Types.id; region; voter; kind })
          (two_region_members ());
    }
  in
  (* data quorum in SRD: majority of leader region's 3 voters = 2 *)
  Alcotest.(check bool) "self+1 tailer commits" true
    (Raft.Quorum.data_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg
       ~leader_region:"r1" ~acks:[ "a1"; "a3" ]);
  Alcotest.(check bool) "self alone does not" false
    (Raft.Quorum.data_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg
       ~leader_region:"r1" ~acks:[ "a1" ]);
  Alcotest.(check bool) "remote acks don't help SRD" false
    (Raft.Quorum.data_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg
       ~leader_region:"r1" ~acks:[ "a1"; "b1"; "b2"; "b3" ]);
  (* election quorum: candidate in r2 with last leader in r1 needs both *)
  Alcotest.(check bool) "r2-only votes insufficient" false
    (Raft.Quorum.election_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg
       ~candidate_region:"r2" ~last_leader:(Some (3, "r1")) ~vote_constraint:None
       ~votes:[ "b1"; "b2"; "b3" ]);
  Alcotest.(check bool) "r2 majority + r1 majority sufficient" true
    (Raft.Quorum.election_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg
       ~candidate_region:"r2" ~last_leader:(Some (3, "r1")) ~vote_constraint:None
       ~votes:[ "b1"; "b2"; "a2"; "a3" ]);
  (* unknown last leader: pessimistic, every region — even when a vote
     was granted somewhere (a grant can only tighten, never relax) *)
  Alcotest.(check bool) "pessimistic requires all regions" false
    (Raft.Quorum.election_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg
       ~candidate_region:"r2" ~last_leader:None ~vote_constraint:None
       ~votes:[ "b1"; "b2"; "b3" ]);
  Alcotest.(check bool) "vote grant alone stays pessimistic" false
    (Raft.Quorum.election_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg
       ~candidate_region:"r2" ~last_leader:None ~vote_constraint:(Some (1, "r2"))
       ~votes:[ "b1"; "b2"; "b3" ]);
  (* a granted vote newer than the last leader adds its region *)
  Alcotest.(check bool) "newer grant region required too" false
    (Raft.Quorum.election_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg
       ~candidate_region:"r1" ~last_leader:(Some (3, "r1"))
       ~vote_constraint:(Some (4, "r2"))
       ~votes:[ "a1"; "a2"; "a3" ]);
  Alcotest.(check bool) "newer grant satisfied with both regions" true
    (Raft.Quorum.election_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg
       ~candidate_region:"r1" ~last_leader:(Some (3, "r1"))
       ~vote_constraint:(Some (4, "r2"))
       ~votes:[ "a1"; "a2"; "b1"; "b2" ]);
  (* min data quorum sizes *)
  Alcotest.(check int) "SRD quorum size" 2
    (Raft.Quorum.min_data_quorum_size Raft.Quorum.Single_region_dynamic cfg
       ~leader_region:"r1");
  Alcotest.(check int) "majority quorum size" 4
    (Raft.Quorum.min_data_quorum_size Raft.Quorum.Majority cfg ~leader_region:"r1")

(* ----- leadership transfer & mock elections ----- *)

let test_graceful_transfer () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  for _ = 1 to 5 do
    ignore (append h "n1")
  done;
  (match Raft.Node.transfer_leadership (raft (get h "n1")) ~target:"n2" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "transfer refused: %s" e);
  let ok = run_until h ~timeout:(10.0 *. s) (fun () -> leaders h = [ "n2" ]) in
  Alcotest.(check bool) "target becomes leader" true ok

let test_transfer_rejects_bad_targets () =
  let h =
    make_harness ~params:majority_params
      (three_nodes () @ [ ("lrn", "r1", false, mysql) ])
  in
  elect h "n1";
  let r = raft (get h "n1") in
  Alcotest.(check bool) "to self" true (Result.is_error (Raft.Node.transfer_leadership r ~target:"n1"));
  Alcotest.(check bool) "to learner" true
    (Result.is_error (Raft.Node.transfer_leadership r ~target:"lrn"));
  Alcotest.(check bool) "to stranger" true
    (Result.is_error (Raft.Node.transfer_leadership r ~target:"nope"))

let test_mock_election_blocks_lagging_region () =
  let h = make_harness ~params:flexi_params (two_region_members ()) in
  elect h "a1";
  ignore (append h "a1");
  Sim.Engine.run_for h.engine s;
  (* Lag b2/b3 (the r2 logtailers): isolate them, then write more. *)
  Sim.Network.isolate_node h.net "b2";
  Sim.Network.isolate_node h.net "b3";
  ignore (append h "a1");
  Sim.Engine.run_for h.engine s;
  (* Transfer to b1: its region majority needs one of the lagging
     logtailers; the mock election must fail and leadership must stay at
     a1 with no write outage (§4.3). *)
  (match Raft.Node.transfer_leadership (raft (get h "a1")) ~target:"b1" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "transfer call failed: %s" e);
  Sim.Engine.run_for h.engine (3.0 *. s);
  Alcotest.(check (list string)) "a1 still leader" [ "a1" ] (leaders h)

let test_mock_election_allows_caught_up_region () =
  let h = make_harness ~params:flexi_params (two_region_members ()) in
  elect h "a1";
  ignore (append h "a1");
  Sim.Engine.run_for h.engine (2.0 *. s);
  (match Raft.Node.transfer_leadership (raft (get h "a1")) ~target:"b1" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "transfer call failed: %s" e);
  let ok = run_until h ~timeout:(10.0 *. s) (fun () -> leaders h = [ "b1" ]) in
  Alcotest.(check bool) "cross-region transfer succeeds" true ok

(* A leader that crashes mid-transfer takes the transfer down with it:
   the deadline must not fire later on the stopped node, tracing an
   abort and calling back into an embedder that has moved on. *)
let test_stop_ends_transfer () =
  let params = { flexi_params with use_mock_elections = false } in
  let h = make_harness ~params (two_region_members ()) in
  elect h "a1";
  Sim.Engine.run_for h.engine s;
  (* The target misses the next entry, so catch-up holds the transfer
     open (quiesced) until its deadline. *)
  Sim.Network.isolate_node h.net "b1";
  ignore (append h "a1");
  Sim.Engine.run_for h.engine (100.0 *. ms);
  (match Raft.Node.transfer_leadership (raft (get h "a1")) ~target:"b1" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "transfer refused: %s" e);
  Sim.Engine.run_for h.engine (100.0 *. ms);
  crash h "a1";
  Sim.Engine.run_for h.engine (5.0 *. s);
  let aborts =
    List.filter
      (fun (e : Sim.Trace.entry) -> Helpers.contains e.message "aborted")
      (Sim.Trace.entries_with_tag h.trace "raft")
  in
  Alcotest.(check (list string)) "no abort traced" []
    (List.map (fun (e : Sim.Trace.entry) -> e.message) aborts);
  Alcotest.(check int) "no abort callback" 0 (get h "a1").transfer_aborts

(* ----- membership changes ----- *)

let test_add_member () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  (* Create the new node's infrastructure first (automation "allocates
     and prepares a new member", §2.2). *)
  Sim.Topology.add_node (Sim.Network.topology h.net) ~id:"n4" ~region:"r1";
  let n4 =
    {
      id = "n4";
      node_region = "r1";
      store = Binlog.Log_store.create ~mode:Binlog.Log_store.Relay ();
      durable = Raft.Node.fresh_durable ();
      raft = None;
      leader_terms = [];
      truncations = 0;
      committed_watermark = 0;
      transfer_aborts = 0;
      up = true;
    }
  in
  n4.raft <- Some (make_raft h n4);
  Hashtbl.replace h.nodes "n4" n4;
  Sim.Network.register h.net "n4" (fun ~src msg ->
      if n4.up then Raft.Node.handle_message (raft n4) ~src msg);
  (match
     Raft.Node.add_member (raft (get h "n1"))
       { Raft.Types.id = "n4"; region = "r1"; voter = true; kind = mysql }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "add_member: %s" e);
  let ok =
    run_until h ~timeout:(10.0 *. s) (fun () ->
        Binlog.Opid.index (Binlog.Log_store.last_opid n4.store) > 0
        && Raft.Types.is_member (Raft.Node.config (raft (get h "n2"))) "n4")
  in
  Alcotest.(check bool) "n4 replicated to and in config everywhere" true ok

let test_remove_member () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  (match Raft.Node.remove_member (raft (get h "n1")) "n3" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "remove_member: %s" e);
  let ok =
    run_until h ~timeout:(10.0 *. s) (fun () ->
        not (Raft.Types.is_member (Raft.Node.config (raft (get h "n1"))) "n3")
        && not (Raft.Types.is_member (Raft.Node.config (raft (get h "n2"))) "n3"))
  in
  Alcotest.(check bool) "n3 removed from configs" true ok;
  (* ring of 2 still commits *)
  let opid = append h "n1" in
  let ok =
    run_until h ~timeout:(5.0 *. s) (fun () ->
        Raft.Node.commit_index (raft (get h "n1")) >= Binlog.Opid.index opid)
  in
  Alcotest.(check bool) "2-node ring commits" true ok

let test_one_change_at_a_time () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  let r = raft (get h "n1") in
  (match Raft.Node.remove_member r "n3" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "first change: %s" e);
  (* immediately, before the first change commits *)
  (match Raft.Node.remove_member r "n2" with
  | Ok _ -> Alcotest.fail "second concurrent change must be rejected"
  | Error _ -> ());
  (* after the first commits, a second change is fine (the new node's
     infrastructure must exist first: config gossip starts immediately) *)
  Sim.Engine.run_for h.engine (2.0 *. s);
  Sim.Topology.add_node (Sim.Network.topology h.net) ~id:"n5" ~region:"r1";
  match
    Raft.Node.add_member r { Raft.Types.id = "n5"; region = "r1"; voter = false; kind = mysql }
  with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "change after commit: %s" e

let test_leader_cannot_remove_self () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  match Raft.Node.remove_member (raft (get h "n1")) "n1" with
  | Ok _ -> Alcotest.fail "leader self-removal must be rejected"
  | Error _ -> ()

let test_promote_learner () =
  let members = three_nodes () @ [ ("n4", "r1", false, mysql) ] in
  let h = make_harness ~params:majority_params members in
  elect h "n1";
  (match Raft.Node.promote_learner (raft (get h "n1")) "n4" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "promote: %s" e);
  let ok =
    run_until h ~timeout:(10.0 *. s) (fun () ->
        match Raft.Types.find_member (Raft.Node.config (raft (get h "n2"))) "n4" with
        | Some m -> m.Raft.Types.voter
        | None -> false)
  in
  Alcotest.(check bool) "learner promoted to voter" true ok

let test_voter_flag_rejects_no_ops () =
  let members = three_nodes () @ [ ("n4", "r1", false, mysql) ] in
  let h = make_harness ~params:majority_params members in
  elect h "n1";
  let r = raft (get h "n1") in
  let before = Raft.Types.cfg_id_to_string (Raft.Node.config_id r) in
  let rejects label expected = function
    | Ok _ -> Alcotest.failf "%s: accepted" label
    | Error e -> Alcotest.(check string) label expected e
  in
  rejects "promote a voter" "already a voter" (Raft.Node.promote_learner r "n2");
  rejects "demote a learner" "already a learner" (Raft.Node.demote_voter r "n4");
  rejects "promote a stranger" "not a member" (Raft.Node.promote_learner r "zz");
  rejects "demote a stranger" "not a member" (Raft.Node.demote_voter r "zz");
  Alcotest.(check string) "config id unchanged" before
    (Raft.Types.cfg_id_to_string (Raft.Node.config_id r))

(* ----- proxying ----- *)

let proxy_members () =
  [
    ("a1", "r1", true, mysql);
    ("a2", "r1", true, tailer);
    ("a3", "r1", true, tailer);
    ("b1", "r2", true, mysql);
    ("b2", "r2", true, tailer);
    ("b3", "r2", true, tailer);
  ]

let run_proxy_workload ~proxying =
  let params =
    { flexi_params with proxying; max_entries_per_ae = 8 }
  in
  let h = make_harness ~params (proxy_members ()) in
  elect h "a1";
  Sim.Engine.run_for h.engine s;
  Sim.Network.reset_stats h.net;
  for i = 1 to 100 do
    ignore
      (Raft.Node.client_append (raft (get h "a1"))
         (Binlog.Entry.Transaction
            {
              gtid = Binlog.Gtid.make ~source:"a1" ~gno:i;
              table = "t";
              ops =
                [
                  Binlog.Event.Insert
                    { key = Printf.sprintf "k%d" i; value = String.make 400 'x' };
                ];
              xid = 0;
            }));
    Sim.Engine.run_for h.engine (20.0 *. ms)
  done;
  ignore
    (run_until h ~timeout:(20.0 *. s) (fun () ->
         List.for_all
           (fun id ->
             Binlog.Opid.index (Binlog.Log_store.last_opid (get h id).store)
             = Binlog.Opid.index (Binlog.Log_store.last_opid (get h "a1").store))
           h.order));
  (h, Sim.Network.cross_region_bytes h.net)

let test_proxying_reduces_cross_region_bytes () =
  let h_on, bytes_on = run_proxy_workload ~proxying:true in
  let h_off, bytes_off = run_proxy_workload ~proxying:false in
  (* all replicas converged in both runs *)
  List.iter
    (fun (h, label) ->
      List.iter
        (fun id ->
          Alcotest.(check int)
            (label ^ ": " ^ id ^ " converged")
            (Binlog.Opid.index (Binlog.Log_store.last_opid (get h "a1").store))
            (Binlog.Opid.index (Binlog.Log_store.last_opid (get h id).store)))
        h.order)
    [ (h_on, "proxy"); (h_off, "direct") ];
  if not (float_of_int bytes_on < 0.7 *. float_of_int bytes_off) then
    Alcotest.failf "proxying did not reduce cross-region bytes: %d vs %d" bytes_on
      bytes_off

let test_proxy_failure_routes_around () =
  let params = { flexi_params with proxying = true } in
  let h = make_harness ~params (proxy_members ()) in
  elect h "a1";
  Sim.Engine.run_for h.engine s;
  (* Kill both r2 logtailers: b1 must still receive entries directly. *)
  crash h "b2";
  crash h "b3";
  Sim.Engine.run_for h.engine (3.0 *. s) (* let health checks notice *);
  for _ = 1 to 5 do
    ignore (append h "a1")
  done;
  let target = Binlog.Opid.index (Binlog.Log_store.last_opid (get h "a1").store) in
  let ok =
    run_until h ~timeout:(15.0 *. s) (fun () ->
        Binlog.Opid.index (Binlog.Log_store.last_opid (get h "b1").store) = target)
  in
  Alcotest.(check bool) "b1 converges despite dead proxies" true ok

let test_catchup_bandwidth_no_duplication () =
  (* Regression: stale duplicate AE responses must not grow the per-peer
     send window — a restarted follower's backfill should cost about one
     copy of the backlog, not ten. *)
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  crash h "n3";
  let payload_bytes = ref 0 in
  for i = 1 to 200 do
    let entry_payload =
      Binlog.Entry.Transaction
        {
          gtid = Binlog.Gtid.make ~source:"n1" ~gno:i;
          table = "t";
          ops = [ Binlog.Event.Insert { key = "k"; value = String.make 400 'x' } ];
          xid = 0;
        }
    in
    (match Raft.Node.client_append (raft (get h "n1")) entry_payload with
    | Ok opid ->
      payload_bytes :=
        !payload_bytes
        + Binlog.Entry.size
            (Option.get (Binlog.Log_store.entry_at (get h "n1").store (Binlog.Opid.index opid)))
    | Error e -> Alcotest.failf "append: %s" e);
    Sim.Engine.run_for h.engine (5.0 *. ms)
  done;
  Sim.Network.reset_stats h.net;
  restart h "n3";
  let target = Binlog.Opid.index (Binlog.Log_store.last_opid (get h "n1").store) in
  ignore
    (run_until h ~timeout:(30.0 *. s) (fun () ->
         Binlog.Opid.index (Binlog.Log_store.last_opid (get h "n3").store) = target));
  let shipped = Sim.Network.link_bytes h.net ~src:"n1" ~dst:"n3" in
  if float_of_int shipped > 2.0 *. float_of_int !payload_bytes then
    Alcotest.failf "catch-up shipped %dB for a %dB backlog (duplication!)" shipped
      !payload_bytes

(* Regression: with stop-and-wait bookkeeping, one lost AppendEntries
   *response* left the peer marked busy forever — replication to it
   stalled until a leadership change.  The per-peer retransmit timer
   must recover without any election. *)
let test_retransmit_recovers_dropped_response () =
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  Sim.Engine.run_for h.engine s;
  (* Lose every n3 -> n1 message: entries still reach n3, their
     acknowledgements do not. *)
  Sim.Network.set_link_faults h.net ~src:"n3" ~dst:"n1"
    { Sim.Network.no_faults with drop = 1.0 };
  let target = Binlog.Opid.index (append h "n1") in
  ignore
    (run_until h ~timeout:(2.0 *. s) (fun () ->
         Binlog.Opid.index (Binlog.Log_store.last_opid (get h "n3").store) = target));
  Alcotest.(check int) "entry reached n3" target
    (Binlog.Opid.index (Binlog.Log_store.last_opid (get h "n3").store));
  (match Raft.Node.match_index_of (raft (get h "n1")) ~peer:"n3" with
  | Some m when m >= target -> Alcotest.fail "ack arrived despite the drop fault"
  | _ -> ());
  Sim.Network.clear_link_faults h.net ~src:"n3" ~dst:"n1";
  let ok =
    run_until h ~timeout:(5.0 *. s) (fun () ->
        match Raft.Node.match_index_of (raft (get h "n1")) ~peer:"n3" with
        | Some m -> m >= target
        | None -> false)
  in
  Alcotest.(check bool) "retransmit recovered the ack" true ok;
  let snap = Obs.Metrics.snapshot (Raft.Node.metrics (raft (get h "n1"))) in
  Alcotest.(check bool) "retransmits counted" true
    (Obs.Metrics.counter_of snap "raft.retransmits" > 0);
  Alcotest.(check bool) "n1 kept the lease the whole time" true
    (Raft.Node.is_leader (raft (get h "n1")));
  Alcotest.(check int) "no election happened" 1
    (List.length (get h "n1").leader_terms)

(* ----- auto step-down (optional extension) ----- *)

let test_auto_step_down_disabled_by_default () =
  (* kuduraft behaviour (§4.1): an isolated leader with a stuck tail
     keeps the role indefinitely. *)
  let h = make_harness ~params:majority_params (three_nodes ()) in
  elect h "n1";
  Sim.Network.isolate_node h.net "n1";
  ignore (append h "n1") (* uncommittable tail *);
  Sim.Engine.run_for h.engine (20.0 *. s);
  Alcotest.(check bool) "still leader" true (Raft.Node.is_leader (raft (get h "n1")))

let test_auto_step_down_abdicates () =
  let params =
    { majority_params with Raft.Node.auto_step_down_after = 3.0 *. s }
  in
  let h = make_harness ~params (three_nodes ()) in
  elect h "n1";
  ignore (append h "n1");
  Sim.Engine.run_for h.engine (2.0 *. s);
  Sim.Network.isolate_node h.net "n1";
  ignore (append h "n1") (* this one can never commit *);
  Sim.Engine.run_for h.engine (10.0 *. s);
  Alcotest.(check bool) "abdicated without seeing a higher term" false
    (Raft.Node.is_leader (raft (get h "n1")));
  (* the rest of the ring elected a replacement as usual *)
  Alcotest.(check bool) "replacement exists" true
    (List.exists (fun id -> id <> "n1") (leaders h))

let test_auto_step_down_quiet_leader_keeps_role () =
  (* without an uncommittable tail there is no reason to abdicate: a
     fully committed, isolated leader just sits there harmlessly *)
  let params =
    { majority_params with Raft.Node.auto_step_down_after = 3.0 *. s }
  in
  let h = make_harness ~params (three_nodes ()) in
  elect h "n1";
  ignore (append h "n1");
  Sim.Engine.run_for h.engine (2.0 *. s) (* commit it *);
  Sim.Network.isolate_node h.net "n1";
  Sim.Engine.run_for h.engine (10.0 *. s);
  Alcotest.(check bool) "no tail, no abdication" true
    (Raft.Node.is_leader (raft (get h "n1")))

(* ----- the leader's cache window over the log ----- *)

(* A transaction entry of one row whose value is [bytes] long. *)
let txn_entry ~term ~index ~bytes =
  let ops = [ Binlog.Event.Insert { key = "k"; value = String.make bytes 'x' } ] in
  Binlog.Entry.make
    ~opid:(Binlog.Opid.make ~term ~index)
    (Binlog.Entry.Transaction
       { gtid = Binlog.Gtid.make ~source:"s" ~gno:index; table = "t"; ops; xid = index })

let txn_payload ~index ~bytes = Binlog.Entry.payload (txn_entry ~term:1 ~index ~bytes)

let noop_entry ~term ~index =
  Binlog.Entry.make ~opid:(Binlog.Opid.make ~term ~index) Binlog.Entry.Noop

let cache_counters node =
  let m = Raft.Node.metrics node in
  ( Obs.Metrics.counter_value (Obs.Metrics.counter m "raft.log_cache.hits"),
    Obs.Metrics.counter_value (Obs.Metrics.counter m "raft.log_cache.disk_reads"),
    int_of_float (Obs.Metrics.gauge_value (Obs.Metrics.gauge m "raft.log_cache.bytes")) )

(* The window keeps the newest entries that fit 4 MiB.  A peer shipped
   entries as they are appended reads inside it (hits); a peer rewound
   behind its floor reads the older entries from the log (disk reads,
   §3.1's "parsing historical binary log files") and the rest as hits. *)
let test_log_cache_eviction_and_fallback () =
  let h = Kit.Bare.make_leader (Kit.Bare.ring 1) in
  let node = h.Kit.Bare.node in
  Alcotest.(check int) "election no-op at 1" 1 (Raft.Node.last_index node);
  let hits0, disk0, _ = cache_counters node in
  (* five entries of 1.2 MiB: four no longer fit the 4 MiB window *)
  let bytes = 1_200 * 1024 in
  for i = 2 to 6 do
    ignore (Raft.Node.client_append node (txn_payload ~index:i ~bytes))
  done;
  let noop = Binlog.Entry.size (noop_entry ~term:1 ~index:1) in
  let size = Binlog.Entry.size (txn_entry ~term:1 ~index:2 ~bytes) in
  Alcotest.(check bool) "four entries overflow the window" true
    (noop + (3 * size) <= 4 * 1024 * 1024 && 4 * size > 4 * 1024 * 1024);
  (* entries 1..6; the window keeps 4..6 *)
  let hits1, disk1, window = cache_counters node in
  Alcotest.(check int) "window holds the newest three" (3 * size) window;
  Alcotest.(check int) "shipped at the tail: 2 peers x 5 hits" 10 (hits1 - hits0);
  Alcotest.(check int) "no disk reads at the tail" 0 (disk1 - disk0);
  (* n12 nacks, its log ending at 1: the leader resends 2..6 *)
  let last_seq =
    Queue.fold
      (fun acc (dst, (ae : Raft.Message.append_entries)) ->
        if dst = "n12" then ae.seq else acc)
      0 h.sent
  in
  Queue.clear h.sent;
  Kit.Bare.respond h ~peer:"n12" ~success:false ~seq:last_seq ~durable:1 ~appended:1;
  let resent =
    Queue.fold
      (fun acc (dst, (ae : Raft.Message.append_entries)) ->
        match ae.payload with
        | Raft.Message.Entries es when dst = "n12" ->
          acc @ Array.to_list (Array.map Binlog.Entry.index es)
        | _ -> acc)
      [] h.sent
  in
  Alcotest.(check (list int)) "resent from the rewound frontier" [ 2; 3; 4; 5; 6 ] resent;
  let hits2, disk2, _ = cache_counters node in
  Alcotest.(check int) "2 and 3 read from the log" 2 (disk2 - disk1);
  Alcotest.(check int) "4..6 read inside the window" 3 (hits2 - hits1)

(* A purge that reaches inside the window takes the purged entries'
   sizes with it: the first eviction that meets a purged slot moves the
   floor to the purge horizon and recounts the bytes the log still
   holds. *)
let test_log_cache_purge_inside_window () =
  let log = Binlog.Log_store.create ~mode:Binlog.Log_store.Relay () in
  let h = Kit.Bare.make_leader ~log (Kit.Bare.ring 1) in
  let node = h.Kit.Bare.node in
  let bytes = 1_200 * 1024 in
  let append i = ignore (Raft.Node.client_append node (txn_payload ~index:i ~bytes)) in
  List.iter append [ 2; 3 ];
  Binlog.Log_store.rotate log;
  append 4;
  Binlog.Log_store.purge_to log ~file:(List.nth (Binlog.Log_store.file_names log) 1);
  Alcotest.(check int) "1..3 purged" 4 (Binlog.Log_store.purged_below log);
  let noop = Binlog.Entry.size (noop_entry ~term:1 ~index:1) in
  let size = Binlog.Entry.size (txn_entry ~term:1 ~index:2 ~bytes) in
  let _, _, window = cache_counters node in
  Alcotest.(check int) "the purge leaves the byte total alone" (noop + (3 * size)) window;
  append 5;
  let _, _, window = cache_counters node in
  Alcotest.(check int) "recounted over 4..5" (2 * size) window

(* A follower's conflicting suffix is cut out of the window with it. *)
let test_log_cache_truncate () =
  let f = Kit.Bare.make_follower (Kit.Bare.ring 1) in
  let node = f.Kit.Bare.f_node in
  let ok, _, _ =
    Kit.Bare.feed f ~leader:"n10"
      (Kit.Bare.append_entries ~leader:"n10" ~term:1 ~prev:(0, 0) ~commit:0
         (List.init 10 (fun i -> (1, i + 1))))
  in
  Alcotest.(check bool) "ten appended" true ok;
  let noop = Binlog.Entry.size (noop_entry ~term:1 ~index:1) in
  let _, _, window = cache_counters node in
  Alcotest.(check int) "window holds all ten" (10 * noop) window;
  let ok, _, _ =
    Kit.Bare.feed f ~leader:"n11"
      (Kit.Bare.append_entries ~leader:"n11" ~term:2 ~prev:(1, 5) ~commit:0 [ (2, 6) ])
  in
  Alcotest.(check bool) "conflict accepted" true ok;
  Alcotest.(check int) "log ends at the new entry" 6 (Raft.Node.last_index node);
  let _, _, window = cache_counters node in
  Alcotest.(check int) "6..10 cut, new 6 added" (6 * noop) window

(* The adaptive batcher trims reads to its byte budget — but at least
   one entry always ships, or a budget below the next entry's size
   would wedge replication. *)
let test_log_cache_byte_budget () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 10 do
    Binlog.Log_store.append log (txn_entry ~term:1 ~index:i ~bytes:200)
  done;
  let per_entry = Binlog.Entry.size (txn_entry ~term:1 ~index:1 ~bytes:200) in
  let read ~max_bytes =
    Array.length (Binlog.Log_store.read_slice log ~max_bytes ~from_index:1 ~max_count:10)
  in
  Alcotest.(check int) "budget of 3 entries returns 3" 3
    (read ~max_bytes:(3 * per_entry));
  Alcotest.(check int) "budget just under 3 entries returns 2" 2
    (read ~max_bytes:((3 * per_entry) - 1));
  Alcotest.(check int) "tiny budget still ships the first entry" 1 (read ~max_bytes:1);
  Alcotest.(check int) "unlimited budget honours max_count" 10 (read ~max_bytes:max_int)

(* ----- the leader's quorum layout follows membership ----- *)

(* A leader in r1 with one voter (A) and one learner (B) beside it: B's
   acks start counting toward the commit point and the lease the moment
   it is promoted, and stop the moment it is demoted. *)
let test_layout_follows_membership () =
  let h =
    Kit.Bare.make_leader [ ("L", "r1", true); ("A", "r1", true); ("B", "r1", false) ]
  in
  let node = h.Kit.Bare.node in
  let last_seq = Hashtbl.create 4 in
  let take () =
    Queue.iter
      (fun (dst, (ae : Raft.Message.append_entries)) ->
        Hashtbl.replace last_seq dst ae.seq)
      h.Kit.Bare.sent;
    Queue.clear h.Kit.Bare.sent
  in
  let ack peer through =
    take ();
    Sim.Engine.run_for h.Kit.Bare.engine (10.0 *. ms);
    Kit.Bare.respond h ~peer ~success:true ~seq:(Hashtbl.find last_seq peer)
      ~durable:through ~appended:through;
    take ()
  in
  let append () =
    match Raft.Node.client_append node Binlog.Entry.Noop with
    | Ok opid -> Binlog.Opid.index opid
    | Error e -> Alcotest.fail e
  in
  let lease = Raft.Node.lease_until in
  ack "A" 1;
  Alcotest.(check int) "noop commits with A" 1 (Raft.Node.commit_index node);
  let i2 = append () in
  let before = lease node in
  ack "B" i2;
  Alcotest.(check int) "a learner's ack does not commit" 1 (Raft.Node.commit_index node);
  Alcotest.(check (float 0.)) "nor extend the lease" before (lease node);
  (match Raft.Node.promote_learner node "B" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let i3 = append () in
  ack "B" i3;
  Alcotest.(check int)
    "the promoted voter's ack commits" i3 (Raft.Node.commit_index node);
  Alcotest.(check bool) "and extends the lease" true (lease node > before);
  ack "A" i3;
  (match Raft.Node.demote_voter node "B" with
  | Ok _ -> ()
  | Error e -> Alcotest.fail e);
  let i4 = append () in
  let before = lease node in
  ack "B" i4;
  Alcotest.(check int) "the demoted learner's ack does not commit" i3
    (Raft.Node.commit_index node);
  Alcotest.(check (float 0.)) "nor extend the lease" before (lease node);
  ack "A" i4;
  Alcotest.(check int) "the voter's ack does" i4 (Raft.Node.commit_index node)

(* ----- allocation on the leader's ack path ----- *)

(* The §6.1 ring's quorum, six regions of three voters, evaluated as the
   leader does on every ack: selection over preallocated stamps. *)
let test_quorum_points_allocate_nothing () =
  let cfg =
    {
      Raft.Types.members =
        List.concat_map
          (fun r ->
            List.init 3 (fun i ->
                {
                  Raft.Types.id = Printf.sprintf "n%d%d" r i;
                  region = Printf.sprintf "r%d" r;
                  voter = true;
                  kind = Raft.Types.Mysql_server;
                }))
          [ 1; 2; 3; 4; 5; 6 ];
    }
  in
  List.iter
    (fun mode ->
      let l = Raft.Quorum.layout mode cfg ~self:"n10" ~leader_region:"r1" in
      Array.iteri
        (fun i _ ->
          (Raft.Quorum.stamps l).(i) <- float_of_int (1_000 - (i * 7 mod 30));
          (Raft.Quorum.globals l).(i) <- float_of_int i)
        (Raft.Quorum.slots l);
      let now = 2_000.0 and now_global = 2_001.0 in
      let sink = ref 0 in
      let words =
        Kit.Alloc.minor_words (fun () ->
            for _ = 1 to 1_000 do
              sink :=
                !sink + Raft.Quorum.commit_point l ~self:1_000 ~above:900 ~upto:1_000;
              if Raft.Quorum.lease_point l ~now ~now_global then incr sink
            done)
      in
      Alcotest.(check (float 0.))
        (Raft.Quorum.mode_to_string mode ^ ": words per 1k evaluations")
        0.0 words)
    Raft.Quorum.[ Majority; Single_region_dynamic; Region_majorities ]

(* A leader of a nine-member ring over three regions (proxying on)
   settling one round of acks per appended entry.  Per ack it allocates
   only a share of what the round's one commit costs and of the
   engine's occasional growth: no list, option, tuple or closure, and no
   float boxed into a record.  Measured at 0.62 words; a rebuilt window
   list, a hashed quorum lookup, a [Hashtbl.find_opt], a config-identity
   compare through tuples, an RTT or lease expiry stored boxed, or a
   latency sample per committed index pushes it past the bound. *)
let leader_ack_words = 0.7

(* The same on the paper's §6.1 ring, six regions of three: the
   round's one commit is shared over seventeen acks.  Measured at 0.29
   words. *)
let leader_ack_words_18 = 0.4

let test_leader_ack_words () =
  List.iter
    (fun (regions, bound) ->
      let per_ack, _ = Kit.Alloc.leader_ack regions in
      Alcotest.(check bool)
        (Printf.sprintf "%d voters: %.2f words per ack <= %.1f" (regions * 3) per_ack bound)
        true
        (per_ack <= bound))
    [ (3, leader_ack_words); (6, leader_ack_words_18) ]

(* The follower's side of a 1-entry AE: the election timer's re-arm
   (its event and jittered delay), the append and the response.
   Measured at 23.9 words; a closure for the reply or the batch append,
   a [Some] around the timer handle, a term option per entry, a list of
   the appended entries or a latency sample per committed index pushes
   it past the bound. *)
let follower_append_words = 24

(* One leader send of a 1-entry batch, amortizing the entry's own append
   over the round's eight AEs: the message (an AE, or a PROXY_OP wrapped
   for its proxy), the slice, the retransmit timer's event, and the
   batch-size sample.  Measured at 28.4 words; a closure per send or per
   peer scan, a fresh prev OpId, the retransmit handle's [Some] or a
   route list built per send pushes it past the bound. *)
let leader_send_words = 29

let test_follower_append_words () =
  let (_, follower, _), _ = Kit.Alloc.round_trip () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per follower append <= %d" follower follower_append_words)
    true
    (follower <= float_of_int follower_append_words)

let test_leader_send_words () =
  let (send, _, _), _ = Kit.Alloc.round_trip () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per AE sent <= %d" send leader_send_words)
    true
    (send <= float_of_int leader_send_words)

(* ----- the follower's appended range ----- *)

(* The follower hands the state machine exactly the entries it
   appended, as one range of the AE's payload: nothing for a duplicate
   batch or one past a gap, the new tail for an overlapping batch, and
   the rewritten suffix for a conflicting one.  The applier sees each
   appended entry once, in log order, and re-applies a truncated
   suffix. *)
let test_follower_appended_range () =
  let f =
    Kit.Bare.make_follower [ ("n1", "r1", true); ("n2", "r1", true); ("n3", "r1", true) ]
  in
  let feed ~term ~prev ?(commit = 0) entries =
    Kit.Bare.feed f ~leader:"n1"
      (Kit.Bare.append_entries ~leader:"n1" ~term ~prev ~commit entries)
  in
  let check label (ok, ranges, applied) (want_ok, want_ranges, want_applied) =
    Alcotest.(check bool) (label ^ ": accepted") want_ok ok;
    Alcotest.(check (list (pair int int)))
      (label ^ ": on_entries_appended (first index, count)")
      want_ranges ranges;
    Alcotest.(check (list int)) (label ^ ": applier processed") want_applied applied
  in
  check "first batch"
    (feed ~term:1 ~prev:(0, 0) [ (1, 1); (1, 2); (1, 3) ])
    (true, [ (1, 3) ], [ 1; 2; 3 ]);
  check "fully duplicate batch"
    (feed ~term:1 ~prev:(0, 0) [ (1, 1); (1, 2); (1, 3) ])
    (true, [], []);
  check "batch overlapping the tail"
    (feed ~term:1 ~prev:(1, 1) [ (1, 2); (1, 3); (1, 4); (1, 5) ])
    (true, [ (4, 2) ], [ 4; 5 ]);
  check "conflicting suffix truncated, then appended"
    (feed ~term:2 ~prev:(1, 2) ~commit:3 [ (1, 3); (2, 4); (2, 5); (2, 6) ])
    (true, [ (4, 3) ], [ 4; 5; 6 ]);
  Alcotest.(check int) "log ends at the rewritten tail" 6 (Raft.Node.last_index f.Kit.Bare.f_node);
  check "batch past a gap" (feed ~term:2 ~prev:(2, 9) [ (2, 10) ]) (false, [], []);
  Alcotest.(check int) "the gap appends nothing" 6 (Raft.Node.last_index f.Kit.Bare.f_node)

let suites =
  [
    ( "raft.election",
      [
        Alcotest.test_case "single leader emerges" `Quick test_single_leader_emerges;
        Alcotest.test_case "single-node ring" `Quick test_single_node_ring;
        Alcotest.test_case "failover elects new leader" `Quick test_failover_elects_new_leader;
        Alcotest.test_case "old leader demotes on rejoin" `Quick test_old_leader_demotes_on_rejoin;
        Alcotest.test_case "election safety (unique terms)" `Quick test_election_safety_terms_unique;
      ] );
    ( "raft.replication",
      [
        Alcotest.test_case "logs converge" `Quick test_replication_converges;
        Alcotest.test_case "lagging follower catches up" `Quick test_lagging_follower_catches_up;
        Alcotest.test_case "uncommitted suffix truncated" `Quick test_uncommitted_suffix_truncated;
        Alcotest.test_case "committed entries survive failover" `Quick test_committed_entries_never_lost;
      ] );
    ( "raft.flexiraft",
      [
        Alcotest.test_case "quorum unit rules" `Quick test_quorum_unit_rules;
        Alcotest.test_case "commits with in-region quorum" `Quick test_flexiraft_commits_in_region;
        Alcotest.test_case "majority mode blocks across partition" `Quick
          test_majority_mode_blocks_across_partition;
        Alcotest.test_case "election needs last-leader region" `Quick
          test_flexiraft_election_needs_last_leader_region;
        Alcotest.test_case "failover within leader region" `Quick
          test_flexiraft_failover_within_leader_region;
      ] );
    ( "raft.transfer",
      [
        Alcotest.test_case "graceful transfer" `Quick test_graceful_transfer;
        Alcotest.test_case "rejects bad targets" `Quick test_transfer_rejects_bad_targets;
        Alcotest.test_case "mock election blocks lagging region" `Quick
          test_mock_election_blocks_lagging_region;
        Alcotest.test_case "mock election allows healthy region" `Quick
          test_mock_election_allows_caught_up_region;
        Alcotest.test_case "stop ends a pending transfer" `Quick test_stop_ends_transfer;
      ] );
    ( "raft.membership",
      [
        Alcotest.test_case "add member" `Quick test_add_member;
        Alcotest.test_case "remove member" `Quick test_remove_member;
        Alcotest.test_case "one change at a time" `Quick test_one_change_at_a_time;
        Alcotest.test_case "leader cannot remove self" `Quick test_leader_cannot_remove_self;
        Alcotest.test_case "promote learner" `Quick test_promote_learner;
        Alcotest.test_case "voter flag rejects no-ops and strangers" `Quick
          test_voter_flag_rejects_no_ops;
        Alcotest.test_case "quorum layout follows membership" `Quick
          test_layout_follows_membership;
      ] );
    ( "raft.alloc",
      [
        Alcotest.test_case "quorum points allocate nothing (18 voters)" `Quick
          test_quorum_points_allocate_nothing;
        Alcotest.test_case "leader ack words (9 members)" `Quick test_leader_ack_words;
        Alcotest.test_case "follower append words (1-entry AE, 9 members)" `Quick
          test_follower_append_words;
        Alcotest.test_case "leader batch send words" `Quick test_leader_send_words;
      ] );
    ( "raft.follower",
      [
        Alcotest.test_case "appended range is the AE's new suffix" `Quick
          test_follower_appended_range;
      ] );
    ( "raft.proxy",
      [
        Alcotest.test_case "reduces cross-region bytes" `Quick
          test_proxying_reduces_cross_region_bytes;
        Alcotest.test_case "routes around dead proxies" `Quick test_proxy_failure_routes_around;
      ] );
    ( "raft.window",
      [
        Alcotest.test_case "catch-up without duplication" `Quick
          test_catchup_bandwidth_no_duplication;
        Alcotest.test_case "retransmit recovers dropped response" `Quick
          test_retransmit_recovers_dropped_response;
      ] );
    ( "raft.step_down",
      [
        Alcotest.test_case "disabled by default (kuduraft)" `Quick
          test_auto_step_down_disabled_by_default;
        Alcotest.test_case "abdicates with stuck tail" `Quick test_auto_step_down_abdicates;
        Alcotest.test_case "quiet leader keeps role" `Quick
          test_auto_step_down_quiet_leader_keeps_role;
      ] );
    ( "raft.log_cache",
      [
        Alcotest.test_case "eviction and disk fallback" `Quick
          test_log_cache_eviction_and_fallback;
        Alcotest.test_case "truncate" `Quick test_log_cache_truncate;
        Alcotest.test_case "purge inside the window" `Quick
          test_log_cache_purge_inside_window;
        Alcotest.test_case "byte budget" `Quick test_log_cache_byte_budget;
      ] );
  ]
