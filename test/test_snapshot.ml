(* Snapshot / log-compaction tests: the purged-hole replication wedge,
   the engine-checkpoint InstallSnapshot rescue (bare Raft nodes and a
   full MyRaft cluster), the safe_purge_index cluster floor, and the
   engine checkpoint/restore roundtrip. *)

let ms = Sim.Engine.ms
let s = Sim.Engine.s

(* ----- bare-node harness (test_raft.ml pattern + snapshot callbacks) ----- *)

type sim_node = {
  id : string;
  node_region : string;
  store : Binlog.Log_store.t;
  durable : Raft.Node.durable;
  mutable raft : Raft.Node.t option;
  mutable installs : int; (* install_snapshot callback firings *)
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
  with_snapshots : bool; (* wire take_snapshot/install_snapshot callbacks *)
}

let raft n = Option.get n.raft

(* A Raft node's counter, read from its metrics registry. *)
let raft_counter r name =
  Obs.Metrics.counter_value (Obs.Metrics.counter (Raft.Node.metrics r) name)

let make_raft h n =
  let callbacks = Raft.Node.default_callbacks () in
  let node =
    Raft.Node.create ~engine:h.engine ~id:n.id ~region:n.node_region
      ~send:(fun ~dst msg ->
        Sim.Network.send h.net ~src:n.id ~dst ~size:(Raft.Message.size msg) msg)
      ~log:n.store ~callbacks ~params:h.params ~initial_config:h.config ~durable:n.durable
      ~trace:h.trace ()
  in
  if h.with_snapshots then begin
    (* A bare node has no engine: the "checkpoint" is an opaque blob at
       the commit boundary, sized to force a multi-chunk transfer. *)
    callbacks.Raft.Node.take_snapshot <-
      (fun () ->
        let boundary = Raft.Node.commit_index node in
        if boundary <= 0 then None
        else
          match Binlog.Log_store.term_at n.store boundary with
          | None -> None
          | Some term ->
            Some
              (Raft.Snapshot.make
                 ~last:(Binlog.Opid.make ~term ~index:boundary)
                 ~gtids:(Binlog.Log_store.gtid_set n.store)
                 ~config:(Raft.Node.config node) ~data:(String.make 2048 'x') ()));
    callbacks.Raft.Node.install_snapshot <-
      (fun ~snapshot:_ -> n.installs <- n.installs + 1)
  end;
  node

(* members: (id, region, voter, kind) *)
let make_harness ?(seed = 5) ?(params = Raft.Node.default_params) ?(with_snapshots = false)
    members =
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
    {
      engine;
      net;
      nodes = Hashtbl.create 8;
      order = List.map (fun (id, _, _, _) -> id) members;
      config;
      params;
      trace;
      with_snapshots;
    }
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
          installs = 0;
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

let append_n h id n =
  let last = ref Binlog.Opid.zero in
  for _ = 1 to n do
    last := append h id
  done;
  !last

let wait_commit h id index =
  if
    not
      (run_until h ~timeout:(10.0 *. s) (fun () ->
           Raft.Node.commit_index (raft (get h id)) >= index))
  then Alcotest.failf "%s never committed index %d" id index

(* Rotate the store, then drop every closed file whose entries all sit at
   or below [below] — the raw file-level purge, bypassing the §A.1 safety
   heuristics on purpose (this is how the wedge happens). *)
let compact_store store ~below =
  Binlog.Log_store.rotate store;
  let keep =
    List.find_map
      (fun (name, first, last, closed) ->
        if closed && first > 0 && last <= below then None else Some name)
      (Binlog.Log_store.file_ranges store)
  in
  match keep with Some file -> Binlog.Log_store.purge_to store ~file | None -> ()

let mysql = Raft.Types.Mysql_server

let three_nodes = [ ("n1", "r1", true, mysql); ("n2", "r1", true, mysql); ("n3", "r1", true, mysql) ]

(* ----- wedge detection without a snapshot provider (satellite: the bug
   is at least *visible* when no checkpoint source is wired) ----- *)

let test_wedge_counter_without_provider () =
  let h = make_harness three_nodes in
  elect h "n1";
  let tail = append_n h "n1" 10 in
  wait_commit h "n3" (Binlog.Opid.index tail);
  crash h "n3";
  let tail = append_n h "n1" 10 in
  let last = Binlog.Opid.index tail in
  wait_commit h "n2" last;
  let leader = raft (get h "n1") in
  compact_store (get h "n1").store ~below:(Raft.Node.commit_index leader);
  Alcotest.(check bool) "prefix actually purged" true
    (Binlog.Log_store.purged_below (get h "n1").store > 1);
  (* drain in-flight AppendEntries sent before the purge, so the restarted
     follower cannot be revived by a stale pre-compaction batch *)
  Sim.Engine.run_for h.engine (2.0 *. s);
  restart h "n3";
  let wedges () = raft_counter leader "raft.purge_wedges" in
  ignore (run_until h ~timeout:(5.0 *. s) (fun () -> wedges () > 0));
  Alcotest.(check bool) "wedge counted" true (wedges () > 0);
  Alcotest.(check bool) "no transfer without a provider" false
    (Raft.Node.snapshot_in_flight leader ~peer:"n3");
  Alcotest.(check int) "n3 stays behind the hole" 0
    (Raft.Node.commit_index (raft (get h "n3")));
  (* the rest of the ring is unharmed *)
  let tail = append_n h "n1" 2 in
  wait_commit h "n2" (Binlog.Opid.index tail)

(* ----- the rescue: behind-purge follower re-converges via a chunked
   InstallSnapshot transfer, then resumes tailing ----- *)

let test_snapshot_rescue_reconverges () =
  (* tiny chunks so the 2 KiB payload takes multiple paced round trips *)
  let params = { Raft.Node.default_params with snapshot_chunk_bytes = 512 } in
  let h = make_harness ~params ~with_snapshots:true three_nodes in
  elect h "n1";
  let tail = append_n h "n1" 10 in
  wait_commit h "n3" (Binlog.Opid.index tail);
  crash h "n3";
  let tail = append_n h "n1" 10 in
  let last = Binlog.Opid.index tail in
  wait_commit h "n2" last;
  let leader = raft (get h "n1") in
  compact_store (get h "n1").store ~below:(Raft.Node.commit_index leader);
  Sim.Engine.run_for h.engine (2.0 *. s);
  restart h "n3";
  let caught_up () =
    let n3 = raft (get h "n3") in
    Raft.Node.commit_index n3 >= last && Binlog.Opid.index (Raft.Node.last_opid n3) >= last
  in
  Alcotest.(check bool) "n3 reconverges via snapshot" true
    (run_until h ~timeout:(20.0 *. s) caught_up);
  Alcotest.(check bool) "leader completed a send" true
    (raft_counter leader "snapshot.sends_completed" >= 1);
  let n3 = get h "n3" in
  Alcotest.(check bool) "raft-level install recorded" true
    (raft_counter (raft n3) "snapshot.installs" >= 1);
  Alcotest.(check bool) "install callback fired" true (n3.installs >= 1);
  Alcotest.(check bool) "follower log rebased" true
    (Binlog.Log_store.purged_below n3.store > 1);
  (* tailing resumed: ordinary replication carries new entries again *)
  let tail = append_n h "n1" 3 in
  wait_commit h "n3" (Binlog.Opid.index tail);
  Alcotest.(check bool) "transfer done, window back to AE" false
    (Raft.Node.snapshot_in_flight leader ~peer:"n3")

(* ----- safe_purge_index floors on a learner's confirmed prefix while
   the learner is live, and releases it once the learner goes silent
   (the snapshot rescue covers it when it returns) ----- *)

let test_safe_purge_learner_floor () =
  let members =
    [ ("n1", "r1", true, mysql); ("n2", "r1", true, mysql); ("lr", "r1", false, mysql) ]
  in
  let h = make_harness members in
  elect h "n1";
  let tail = append_n h "n1" 5 in
  let synced = Binlog.Opid.index tail in
  let leader = raft (get h "n1") in
  ignore
    (run_until h ~timeout:(10.0 *. s) (fun () ->
         Raft.Node.match_index_of leader ~peer:"lr" = Some synced));
  crash h "lr";
  let tail = append_n h "n1" 5 in
  let last = Binlog.Opid.index tail in
  wait_commit h "n2" last;
  (* within the liveness grace the learner's match still floors the purge *)
  Alcotest.(check int) "floored at the learner's prefix" synced
    (Raft.Node.safe_purge_index leader);
  (* silent past the grace window: presumed down, floor released *)
  Sim.Engine.run_for h.engine (4.0 *. s);
  Alcotest.(check int) "floor released once silent" (Raft.Node.commit_index leader)
    (Raft.Node.safe_purge_index leader)

(* ----- engine checkpoint/restore roundtrip ----- *)

let test_engine_checkpoint_roundtrip () =
  let gtid gno = Binlog.Gtid.make ~source:"srv1" ~gno in
  let opid index = Binlog.Opid.make ~term:1 ~index in
  let e = Storage.Engine.create () in
  for i = 1 to 3 do
    let p = Storage.Engine.prepare e ~gtid:(gtid i)
      ~events:(Helpers.rows [ ("t", Binlog.Event.Insert { key = Printf.sprintf "k%d" i; value = "v" }) ]) in
    Storage.Engine.commit_prepared e p ~opid:(opid i)
  done;
  let blob = Storage.Engine.encode_checkpoint (Storage.Engine.checkpoint e) in
  let fresh = Storage.Engine.create () in
  Storage.Engine.restore fresh (Storage.Engine.decode_checkpoint blob);
  Alcotest.(check (option string)) "row restored" (Some "v")
    (Storage.Engine.get fresh ~table:"t" ~key:"k2");
  Alcotest.(check bool) "gtid executed carried" true
    (Storage.Engine.has_committed fresh (gtid 3));
  Alcotest.(check int) "recovery cursor carried" 3
    (Binlog.Opid.index (Storage.Engine.last_committed_opid fresh));
  Alcotest.(check int) "commit count carried" 3 (Storage.Engine.committed_count fresh);
  Alcotest.(check int32) "content checksum identical" (Storage.Engine.checksum e)
    (Storage.Engine.checksum fresh)

(* ----- full MyRaft cluster: compact the primary's binlog while a
   replica is down, restart it, and require the engine-checkpoint
   InstallSnapshot to bring data AND log back in line ----- *)

let test_cluster_purged_replica_rescue () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  Alcotest.(check int) "first writes" 8 (Helpers.write_n ~prefix:"a" cluster 8);
  Myraft.Cluster.crash cluster "mysql3";
  Alcotest.(check int) "writes while down" 8 (Helpers.write_n ~prefix:"b" cluster 8);
  (* past the liveness grace, the silent replica no longer floors the purge *)
  Myraft.Cluster.run_for cluster (4.0 *. s);
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  Helpers.check_ok "flush" (Myraft.Server.flush_binary_logs primary);
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let purged = Myraft.Server.purge_binary_logs primary in
  Alcotest.(check bool) "files purged" true (purged >= 1);
  Alcotest.(check bool) "prefix gone on the primary" true
    (Binlog.Log_store.purged_below (Myraft.Server.log primary) > 1);
  (* the local applier floors the purge: nothing unapplied was dropped *)
  Alcotest.(check bool) "purge respects applied-through" true
    (Binlog.Log_store.purged_below (Myraft.Server.log primary) - 1
    <= Myraft.Server.applied_through primary);
  Myraft.Cluster.restart cluster "mysql3";
  let target () = Raft.Node.commit_index (Myraft.Server.raft primary) in
  let caught_up () =
    match Myraft.Cluster.server cluster "mysql3" with
    | None -> false
    | Some srv -> Myraft.Server.applied_through srv >= target ()
  in
  Alcotest.(check bool) "replica reconverges" true
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) caught_up);
  let replica = Option.get (Myraft.Cluster.server cluster "mysql3") in
  Alcotest.(check bool) "rescued by InstallSnapshot" true
    (raft_counter (Myraft.Server.raft replica) "snapshot.installs" >= 1);
  (* data that only ever existed behind the purge horizon arrived via the
     engine checkpoint, not log replay *)
  Alcotest.(check (result (option string) string)) "pre-purge row present"
    (Ok (Some "v"))
    (Myraft.Server.read replica ~table:"t" ~key:"a3");
  Alcotest.(check (result (option string) string)) "post-crash row present"
    (Ok (Some "v"))
    (Myraft.Server.read replica ~table:"t" ~key:"b5");
  (* and ordinary replication carries new writes again *)
  Alcotest.(check int) "writes after rescue" 3 (Helpers.write_n ~prefix:"c" cluster 3);
  let after () =
    match Myraft.Server.read replica ~table:"t" ~key:"c3" with
    | Ok (Some _) -> true
    | _ -> false
  in
  Alcotest.(check bool)
    "tailing resumed" true
    (Myraft.Cluster.run_until cluster ~timeout:(10.0 *. s) after)

(* ----- purge gating: replicas refuse (no leader floor), and the
   primary's own unapplied suffix is never dropped ----- *)

let test_purge_refused_off_primary () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  Alcotest.(check int) "writes" 4 (Helpers.write_n cluster 4);
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  Helpers.check_ok "flush" (Myraft.Server.flush_binary_logs primary);
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let replica = Option.get (Myraft.Cluster.server cluster "mysql2") in
  Alcotest.(check int) "replica purges nothing" 0 (Myraft.Server.purge_binary_logs replica);
  Alcotest.(check int) "replica log intact" 1
    (Binlog.Log_store.purged_below (Myraft.Server.log replica))

let suites =
  [
    ( "snapshot.node",
      [
        Alcotest.test_case "wedge counter without provider" `Quick
          test_wedge_counter_without_provider;
        Alcotest.test_case "snapshot rescue reconverges" `Quick
          test_snapshot_rescue_reconverges;
        Alcotest.test_case "safe purge floors on live learner" `Quick
          test_safe_purge_learner_floor;
      ] );
    ( "snapshot.engine",
      [ Alcotest.test_case "checkpoint roundtrip" `Quick test_engine_checkpoint_roundtrip ] );
    ( "snapshot.cluster",
      [
        Alcotest.test_case "purged replica rescued" `Quick test_cluster_purged_replica_rescue;
        Alcotest.test_case "purge refused off-primary" `Quick test_purge_refused_off_primary;
      ] );
  ]
