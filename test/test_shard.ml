(* Multi-Raft sharding: router hashing, mux coalescing/framing, the
   assembled multi-group deployment, and the observational-equivalence
   property against independent single-group clusters. *)

let ms = Sim.Engine.ms
let s = Sim.Engine.s
let us = Sim.Engine.us

(* Every group runs on the deployment's one engine. *)
let run_for multi = Sim.Engine.run_for (Shard.Multi.engine multi)

let run_until multi = Myraft.Cluster.run_until (Shard.Multi.cluster multi 0)

(* ----- router ----- *)

(* Independent FNV-1a reference over the same byte stream the router
   hashes (table, 0x00, key). *)
let reference_fnv1a ~table ~key =
  let h = ref 0xcbf29ce484222325L in
  let feed c =
    h := Int64.mul (Int64.logxor !h (Int64.of_int (Char.code c land 0xff))) 0x100000001b3L
  in
  String.iter feed table;
  feed '\000';
  String.iter feed key;
  !h

let test_router_hash_reference () =
  List.iter
    (fun (table, key) ->
      Alcotest.(check int64)
        (Printf.sprintf "fnv1a(%s,%s)" table key)
        (reference_fnv1a ~table ~key)
        (Shard.Router.hash ~table ~key))
    [ ("sbtest", "row-0"); ("t", ""); ("", "k"); ("a", "row-12345"); ("t0", "row-7") ]

let test_router_stability_and_spread () =
  let r1 = Shard.Router.create ~groups:4 () in
  let r2 = Shard.Router.create ~groups:4 () in
  let counts = Array.make 4 0 in
  for i = 0 to 999 do
    let key = Printf.sprintf "row-%d" i in
    let g = Shard.Router.group_of r1 ~table:"sbtest" ~key in
    Alcotest.(check int) "stable across instances" g
      (Shard.Router.group_of r2 ~table:"sbtest" ~key);
    Alcotest.(check bool) "in range" true (g >= 0 && g < 4);
    counts.(g) <- counts.(g) + 1
  done;
  Array.iteri
    (fun g n ->
      if n < 150 then
        Alcotest.failf "group %d got only %d/1000 uniform keys (skewed hash)" g n)
    counts;
  (* the table participates: same key, different tables, different digests *)
  Alcotest.(check bool) "table feeds the hash" false
    (Shard.Router.hash ~table:"t0" ~key:"row-1" = Shard.Router.hash ~table:"t1" ~key:"row-1")

let test_router_leader_cache () =
  let r = Shard.Router.create ~groups:2 () in
  Alcotest.(check (option string)) "empty" None (Shard.Router.cached_leader r ~group:0);
  Shard.Router.note_leader r ~group:0 ~node:"mysql2";
  Alcotest.(check (option string)) "cached" (Some "mysql2")
    (Shard.Router.cached_leader r ~group:0);
  Shard.Router.invalidate_leader r ~group:0;
  Alcotest.(check (option string)) "invalidated" None
    (Shard.Router.cached_leader r ~group:0)

(* ----- mux ----- *)

let make_mux ?(window = 50.0 *. us) () =
  let engine = Sim.Engine.create ~seed:5 () in
  let topology = Sim.Topology.create () in
  let mux = Shard.Mux.create ~engine ~topology ~window () in
  List.iter
    (fun id -> Shard.Mux.add_node mux ~id ~region:"r1")
    [ "a"; "b"; "c" ];
  (engine, mux)

let reply_msg write_id = Myraft.Wire.Write_reply { write_id; outcome = Myraft.Wire.Rejected "x" }

let wid = function
  | Myraft.Wire.Write_reply { write_id; _ } -> write_id
  | _ -> Alcotest.fail "unexpected frame payload"

let test_mux_coalesces_and_demuxes () =
  let engine, mux = make_mux () in
  let got0 = ref [] and got1 = ref [] in
  Shard.Mux.register mux ~group:0 "b" (fun ~src:_ msg -> got0 := wid msg :: !got0);
  Shard.Mux.register mux ~group:1 "b" (fun ~src:_ msg -> got1 := wid msg :: !got1);
  List.iter
    (fun (g, id) -> Shard.Mux.send mux ~group:g ~src:"a" ~dst:"b" (reply_msg id))
    [ (0, 1); (1, 2); (0, 3); (1, 4) ];
  Sim.Engine.run_for engine (10.0 *. ms);
  (* one link, one window: all four frames ride one packet, FIFO per group *)
  Alcotest.(check int) "packets" 1 (Shard.Mux.packets_sent mux);
  Alcotest.(check int) "frames" 4 (Shard.Mux.frames_sent mux);
  Alcotest.(check (list int)) "group 0 order" [ 1; 3 ] (List.rev !got0);
  Alcotest.(check (list int)) "group 1 order" [ 2; 4 ] (List.rev !got1);
  let expected_bytes =
    Shard.Mux.packet_size
      (List.map
         (fun id -> { Shard.Mux.fr_group = 0; fr_payload = reply_msg id })
         [ 1; 2; 3; 4 ])
  in
  Alcotest.(check int) "framing bytes" expected_bytes (Shard.Mux.bytes_sent mux)

let test_mux_window_separates_packets () =
  let engine, mux = make_mux ~window:(50.0 *. us) () in
  Shard.Mux.register mux ~group:0 "b" (fun ~src:_ _ -> ());
  Shard.Mux.send mux ~group:0 ~src:"a" ~dst:"b" (reply_msg 1);
  Sim.Engine.run_for engine ms;
  (* past the window: the next frame starts a fresh packet *)
  Shard.Mux.send mux ~group:0 ~src:"a" ~dst:"b" (reply_msg 2);
  Sim.Engine.run_for engine ms;
  Alcotest.(check int) "two windows, two packets" 2 (Shard.Mux.packets_sent mux)

let test_mux_carried_recently_excludes_own_group () =
  let engine, mux = make_mux () in
  Shard.Mux.send mux ~group:0 ~src:"a" ~dst:"b" (reply_msg 1);
  Shard.Mux.send mux ~group:1 ~src:"a" ~dst:"b" (reply_msg 2);
  Shard.Mux.send mux ~group:2 ~src:"c" ~dst:"b" (reply_msg 3);
  let carried g ~src = Shard.Mux.carried_recently mux ~group:g ~src ~dst:"b" ~within:ms in
  (* a->b carries groups 0 and 1: each sees the other, group 9 sees both *)
  Alcotest.(check bool) "g0 carried by g1" true (carried 0 ~src:"a");
  Alcotest.(check bool) "g9 carried" true (carried 9 ~src:"a");
  (* c->b carries only group 2's own frames: nothing to piggyback on *)
  Alcotest.(check bool) "own frames don't carry" false (carried 2 ~src:"c");
  Alcotest.(check bool) "other group on c->b" true (carried 0 ~src:"c");
  ignore (Sim.Engine.run_for engine (2.0 *. ms));
  Alcotest.(check bool) "recency horizon expires" false (carried 0 ~src:"a")

(* ----- the assembled deployment ----- *)

(* One primary-capable MySQL voter per region: leader spread is visible
   and every group still elects under region faults. *)
let three_region_members () =
  [
    Myraft.Cluster.mysql "mysql1" "r1";
    Myraft.Cluster.mysql "mysql2" "r2";
    Myraft.Cluster.mysql "mysql3" "r3";
  ]

(* Route one write through the router to the owning group's discovered
   primary (discovery supersedes a stale isolated leader once the new
   one publishes), waiting out any in-flight failover.  Rejections and
   timeouts both retry: a retried insert of the same key/value is
   content-idempotent, so duplicates cannot skew engine comparisons. *)
let multi_write ?(timeout = 20.0 *. s) ?(attempts = 6) multi ~table ~key ~value =
  let g = Shard.Router.group_of (Shard.Multi.router multi) ~table ~key in
  let c = Shard.Multi.cluster multi g in
  let rs = Shard.Multi.replicaset_of_group g in
  let discovered () =
    match
      Myraft.Service_discovery.primary_of (Shard.Multi.discovery multi) ~replicaset:rs
    with
    | Some id when not (Myraft.Cluster.is_crashed c id) -> Myraft.Cluster.server c id
    | _ -> None
  in
  let rec go n =
    if n = 0 then Error (g, "retries exhausted")
    else begin
      ignore (run_until multi ~timeout (fun () -> discovered () <> None));
      match discovered () with
      | None -> Error (g, "no discovered primary")
      | Some server ->
        let result = ref None in
        Myraft.Server.submit_write server ~table
          ~ops:[ Binlog.Event.Insert { key; value } ]
          ~reply:(fun outcome -> result := Some outcome);
        ignore
          (run_until multi ~step:ms ~timeout (fun () -> !result <> None));
        match !result with
        | Some (Myraft.Wire.Committed _) -> Ok g
        | Some (Myraft.Wire.Rejected _) | None -> go (n - 1)
    end
  in
  go attempts

let group_settled c =
  match Myraft.Cluster.raft_leader c with
  | None -> false
  | Some _ ->
    let ids = Myraft.Cluster.member_ids c in
    let indexes =
      List.filter_map
        (fun id -> Option.map Raft.Node.commit_index (Myraft.Cluster.raft_of c id))
        ids
    in
    (match indexes with
    | i :: rest ->
      List.for_all (fun j -> j = i) rest
      && List.for_all
           (fun srv -> Myraft.Server.applied_through srv >= i)
           (Myraft.Cluster.servers c)
    | [] -> false)

let settle multi =
  Alcotest.(check bool)
    "all groups settle" true
    (run_until multi ~timeout:(60.0 *. s) (fun () ->
         List.for_all group_settled (Shard.Multi.clusters multi)))

let test_multi_bootstrap_spreads_leaders () =
  let multi =
    Shard.Multi.create ~seed:31 ~members:(three_region_members ()) ~groups:4 ()
  in
  Shard.Multi.bootstrap multi;
  let leaders = List.filter_map snd (Shard.Multi.leader_placement multi) in
  Alcotest.(check int) "every group has a leader" 4 (List.length leaders);
  let distinct = List.sort_uniq compare leaders in
  Alcotest.(check int) "leaders spread over all three nodes" 3 (List.length distinct)

let test_multi_routed_traffic_reaches_every_shard () =
  let multi =
    Shard.Multi.create ~seed:32 ~members:(three_region_members ()) ~groups:4 ()
  in
  Shard.Multi.bootstrap multi;
  let backend = Shard.Multi.backend multi in
  let gen =
    Workload.Generator.create ~backend ~client_id:"client1" ~region:"r1"
      ~tables:[ "t0"; "t1" ] ~key_space:500 ()
  in
  Workload.Generator.start_closed_loop gen ~threads:8;
  run_for multi (2.0 *. s);
  Workload.Generator.stop gen;
  run_for multi s;
  let stats = Workload.Generator.stats gen in
  if stats.Workload.Generator.committed < 100 then
    Alcotest.failf "only %d commits through the routed backend"
      stats.Workload.Generator.committed;
  List.iter
    (fun c ->
      let committed =
        match Myraft.Cluster.raft_leader c with
        | Some id -> (
          match Myraft.Cluster.raft_of c id with
          | Some r -> Raft.Node.commit_index r
          | None -> 0)
        | None -> 0
      in
      if committed = 0 then
        Alcotest.failf "%s committed nothing — routing starved it"
          (Myraft.Cluster.replicaset_name c))
    (Shard.Multi.clusters multi);
  (* coalescing really happened: more frames than packets on the wire *)
  let mux = Shard.Multi.mux multi in
  if Shard.Mux.frames_sent mux <= Shard.Mux.packets_sent mux then
    Alcotest.failf "no coalescing under load (%d frames / %d packets)"
      (Shard.Mux.frames_sent mux) (Shard.Mux.packets_sent mux);
  let snap = Shard.Multi.metrics_snapshot multi in
  Alcotest.(check bool) "shard.mux.packets exported" true
    (Obs.Metrics.counter_of snap "shard.mux.packets" > 0);
  Alcotest.(check (option (float 0.01))) "shard.groups gauge" (Some 4.0)
    (Obs.Metrics.gauge_of snap "shard.groups")

let test_multi_idle_heartbeats_coalesce () =
  let multi =
    Shard.Multi.create ~seed:33 ~members:(three_region_members ()) ~groups:4 ()
  in
  Shard.Multi.bootstrap multi;
  let before = Shard.Multi.leader_placement multi in
  run_for multi (20.0 *. s);
  let after = Shard.Multi.leader_placement multi in
  Alcotest.(check bool) "no leader moved while idle" true (before = after);
  let snap = Shard.Multi.metrics_snapshot multi in
  let suppressed = Obs.Metrics.counter_of snap "raft.heartbeats_suppressed" in
  if suppressed = 0 then
    Alcotest.fail "idle co-located leaders never suppressed a heartbeat";
  if Obs.Metrics.counter_of snap "raft.transport_liveness_resets" = 0 then
    Alcotest.fail "followers never took liveness from a carried frame"

let test_single_group_never_suppresses () =
  let multi =
    Shard.Multi.create ~seed:34 ~members:(three_region_members ()) ~groups:1 ()
  in
  Shard.Multi.bootstrap multi;
  run_for multi (20.0 *. s);
  let snap = Shard.Multi.metrics_snapshot multi in
  Alcotest.(check int) "lone group keeps beating" 0
    (Obs.Metrics.counter_of snap "raft.heartbeats_suppressed");
  (* and its leader survived the idle stretch: liveness was never starved *)
  Alcotest.(check int) "leader stable" 1
    (List.length (List.filter_map snd (Shard.Multi.leader_placement multi)))

let test_multi_rebalance_respreads_leaders () =
  let multi =
    Shard.Multi.create ~seed:35 ~members:(three_region_members ()) ~groups:4 ()
  in
  Shard.Multi.bootstrap multi;
  (* pile every leader onto mysql1, then ask the balancer to undo it *)
  List.iteri
    (fun g c ->
      if Myraft.Cluster.raft_leader c <> Some "mysql1" then begin
        (match Myraft.Cluster.transfer_leadership c ~target:"mysql1" with
        | Ok () -> ()
        | Error e -> Alcotest.failf "transfer of shard%d: %s" g e);
        Alcotest.(check bool)
          (Printf.sprintf "shard%d moved to mysql1" g)
          true
          (run_until multi ~timeout:(30.0 *. s) (fun () ->
               Myraft.Cluster.raft_leader c = Some "mysql1"))
      end)
    (Shard.Multi.clusters multi);
  let plan, errors = Shard.Multi.rebalance_leaders multi in
  Alcotest.(check (list (pair int string))) "no transfer errors" [] errors;
  Alcotest.(check bool) "balancer saw the pile-up" false plan.Control.Rebalance.balanced;
  Alcotest.(check bool) "leaders respread" true
    (run_until multi ~timeout:(60.0 *. s) (fun () ->
         let leaders = List.filter_map snd (Shard.Multi.leader_placement multi) in
         List.length leaders = 4 && List.length (List.sort_uniq compare leaders) = 3))

(* Region majorities must survive a single-node crash for FlexiRaft
   elections, so this one uses the logtailer-padded chaos-style ring. *)
let witnessed_members () =
  List.concat_map
    (fun i ->
      [
        Myraft.Cluster.mysql (Printf.sprintf "mysql%d" i) (Printf.sprintf "r%d" i);
        Myraft.Cluster.logtailer (Printf.sprintf "lt%da" i) (Printf.sprintf "r%d" i);
        Myraft.Cluster.logtailer (Printf.sprintf "lt%db" i) (Printf.sprintf "r%d" i);
      ])
    [ 1; 2; 3 ]

let test_multi_physical_crash_fails_over_all_groups () =
  let multi =
    Shard.Multi.create ~seed:36 ~members:(witnessed_members ()) ~groups:4 ()
  in
  Shard.Multi.bootstrap multi;
  Shard.Multi.crash_node multi "mysql1";
  Alcotest.(check bool) "every group re-elects off mysql1" true
    (run_until multi ~timeout:(60.0 *. s) (fun () ->
         List.for_all
           (fun c ->
             match Myraft.Cluster.raft_leader c with
             | Some l -> l <> "mysql1"
             | None -> false)
           (Shard.Multi.clusters multi)));
  Shard.Multi.restart_node multi "mysql1";
  settle multi;
  (* writes land in every shard after the round trip *)
  for i = 0 to 15 do
    match
      multi_write multi ~table:"t0" ~key:(Printf.sprintf "post-%d" i) ~value:"v"
    with
    | Ok _ -> ()
    | Error (g, e) -> Alcotest.failf "write %d (shard %d) failed: %s" i g e
  done

(* ----- observational equivalence (qcheck) ----- *)

type eq_fault = No_fault | Crash_follower | Isolate_node

let eq_fault_name = function
  | No_fault -> "none"
  | Crash_follower -> "crash"
  | Isolate_node -> "isolate"

let eq_arb =
  let gen =
    QCheck.Gen.(
      triple (0 -- 1000)
        (oneofl [ No_fault; Crash_follower; Isolate_node ])
        (list_size (10 -- 24) (pair (0 -- 1) (0 -- 49))))
  in
  QCheck.make
    ~print:(fun (seed, fault, ops) ->
      Printf.sprintf "seed=%d fault=%s ops=[%s]" seed (eq_fault_name fault)
        (String.concat ";"
           (List.map (fun (t, k) -> Printf.sprintf "t%d/row-%d" t k) ops)))
    gen

(* M-shard execution with router + mux must be observationally equivalent
   to M independent single-group clusters: identical per-shard engine
   content, even when a node (hosting some shard's leader) crashes or is
   isolated mid-stream.  Retried writes are content-idempotent, so
   reject-and-retry during failover cannot skew the comparison. *)
let sharded_equals_independent (seed, fault, raw_ops) =
  let groups = 3 in
  let members = Myraft.Cluster.small_members () in
  let multi = Shard.Multi.create ~seed ~members ~groups () in
  Shard.Multi.bootstrap multi;
  (* distinct keys; the value encodes the op so content mismatches
     are attributable *)
  let ops =
    List.mapi
      (fun i (tbl, k) ->
        ( Printf.sprintf "t%d" tbl,
          Printf.sprintf "row-%d-%d" k i,
          Printf.sprintf "v%d" i ))
      raw_ops
  in
  let half = List.length ops / 2 in
  let routed = ref [] in
  List.iteri
    (fun i (table, key, value) ->
      if i = half then begin
        match fault with
        | No_fault -> ()
        | Crash_follower -> Shard.Multi.crash_node multi "mysql2"
        | Isolate_node -> Shard.Multi.isolate_node multi "mysql3"
      end;
      match multi_write multi ~table ~key ~value with
      | Ok g -> routed := (g, (table, key, value)) :: !routed
      | Error (g, e) ->
        Alcotest.failf "sharded write %s/%s (shard %d): %s" table key g e)
    ops;
  (match fault with
  | No_fault -> ()
  | Crash_follower -> Shard.Multi.restart_node multi "mysql2"
  | Isolate_node -> Shard.Multi.heal_node multi "mysql3");
  if
    not
      (run_until multi ~timeout:(60.0 *. s) (fun () ->
           List.for_all group_settled (Shard.Multi.clusters multi)))
  then Alcotest.fail "sharded deployment did not settle after heal";
  let routed = List.rev !routed in
  (* reference: one fault-free standalone cluster per shard, fed that
     shard's op subsequence in order *)
  List.iteri
    (fun g c ->
      let my_ops = List.filter_map (fun (g', op) -> if g' = g then Some op else None) routed in
      let reference =
        Myraft.Cluster.create ~seed:(seed + 7919) ~replicaset:"ref" ~members ()
      in
      Myraft.Cluster.bootstrap reference ~leader_id:"mysql1";
      List.iter
        (fun (table, key, value) ->
          Helpers.check_ok
            (Printf.sprintf "reference write %s/%s" table key)
            (Helpers.direct_write reference ~table ~key ~value))
        my_ops;
      ignore
        (Myraft.Cluster.run_until reference ~timeout:(30.0 *. s) (fun () ->
             group_settled reference));
      let ref_sum =
        match Myraft.Cluster.primary reference with
        | Some srv -> Storage.Engine.checksum (Myraft.Server.storage srv)
        | None -> Alcotest.fail "reference lost its primary"
      in
      (* every member of the shard converged to the reference content *)
      List.iter
        (fun srv ->
          Alcotest.(check int32)
            (Printf.sprintf "shard%d engine ≡ independent cluster (%s)" g
               (Myraft.Server.id srv))
            ref_sum
            (Storage.Engine.checksum (Myraft.Server.storage srv)))
        (Myraft.Cluster.servers c);
      (* each acked write lives in its shard and nowhere else *)
      List.iter
        (fun (table, key, value) ->
          List.iteri
            (fun g' c' ->
              match Myraft.Cluster.primary c' with
              | None -> ()
              | Some srv ->
                let got =
                  Storage.Engine.get (Myraft.Server.storage srv) ~table ~key
                in
                if g' = g then
                  Alcotest.(check (option string))
                    (Printf.sprintf "%s/%s in shard%d" table key g)
                    (Some value) got
                else
                  Alcotest.(check (option string))
                    (Printf.sprintf "%s/%s absent from shard%d" table key g')
                    None got)
            (Shard.Multi.clusters multi))
        my_ops)
    (Shard.Multi.clusters multi);
  true

let prop_sharded_equals_independent =
  QCheck.Test.make ~name:"M shards + mux ≡ M independent clusters" ~count:6 eq_arb
    sharded_equals_independent

(* Pinned schedule (seed 313, crash): mysql2 leads group 1 when it
   crashes and restarts.  Its process then frames only groups 0 and 2,
   yet the mux liveness tap credited those frames to group 1's followers
   as their leader's heartbeat, so group 1 sat leaderless at term 1 and
   never settled.  Liveness now counts only while real group-level
   contact from the leader is recent. *)
let test_restarted_leader_process_does_not_fake_liveness () =
  let ops =
    [ (0, 39); (0, 12); (0, 5); (1, 32); (0, 1); (0, 19); (1, 45); (0, 23); (1, 37);
      (1, 39); (0, 24); (0, 12); (1, 13) ]
  in
  Alcotest.(check bool) "settles and matches" true
    (sharded_equals_independent (313, Crash_follower, ops))

(* Satellite of the logless-reconfig work: the router's cached leader
   for a group must be dropped the moment a config change removes the
   cached node from that group's membership — eagerly, via the
   config-change tap, not merely after a client request bounces. *)
let test_multi_config_change_invalidates_router () =
  let multi =
    Shard.Multi.create ~seed:36 ~members:(three_region_members ()) ~groups:2 ()
  in
  Shard.Multi.bootstrap multi;
  let c0 = Shard.Multi.cluster multi 0 in
  let leader () =
    match Myraft.Cluster.raft_leader c0 with
    | Some id -> Option.get (Myraft.Cluster.raft_of c0 id)
    | None -> Alcotest.fail "group 0 lost its leader"
  in
  (* join a learner, then point group 0's route cache at it — the stale
     route a client would hold after a leadership-era membership swap *)
  Myraft.Cluster.add_server c0 (Myraft.Cluster.logtailer "extra" "r1");
  (match
     Raft.Node.add_member (leader ())
       { Raft.Types.id = "extra"; region = "r1"; voter = false; kind = Raft.Types.Logtailer }
   with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "add_member: %s" e);
  let settled () = not (Raft.Node.has_pending_config_change (leader ())) in
  Alcotest.(check bool) "join committed" true
    (Myraft.Cluster.run_until c0 ~timeout:(30.0 *. s) settled);
  let router = Shard.Multi.router multi in
  Shard.Router.note_leader router ~group:0 ~node:"extra";
  Alcotest.(check (option string)) "route cached" (Some "extra")
    (Shard.Router.cached_leader router ~group:0);
  (match Raft.Node.remove_member (leader ()) "extra" with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "remove_member: %s" e);
  Alcotest.(check bool) "eviction committed" true
    (Myraft.Cluster.run_until c0 ~timeout:(30.0 *. s) (fun () ->
         settled ()
         && Shard.Router.cached_leader router ~group:0 = None));
  (* a config change that keeps the cached node a member leaves the
     cache alone (no gratuitous invalidation) *)
  let l = Myraft.Cluster.raft_leader c0 in
  Shard.Router.note_leader router ~group:0 ~node:(Option.get l);
  let bystander =
    List.find (fun id -> Some id <> l) [ "mysql1"; "mysql2"; "mysql3" ]
  in
  (match Raft.Node.demote_voter (leader ()) bystander with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "demote_voter: %s" e);
  Alcotest.(check bool) "demote committed" true
    (Myraft.Cluster.run_until c0 ~timeout:(30.0 *. s) settled);
  Alcotest.(check (option string)) "route kept for retained member" l
    (Shard.Router.cached_leader router ~group:0)

let suites =
  [
    ( "shard.router",
      [
        Alcotest.test_case "hash matches FNV-1a reference" `Quick test_router_hash_reference;
        Alcotest.test_case "hash is stable, in-range, spread" `Quick
          test_router_stability_and_spread;
        Alcotest.test_case "leader redirect cache" `Quick test_router_leader_cache;
      ] );
    ( "shard.mux",
      [
        Alcotest.test_case "frames coalesce and demux FIFO per group" `Quick
          test_mux_coalesces_and_demuxes;
        Alcotest.test_case "window boundary starts a new packet" `Quick
          test_mux_window_separates_packets;
        Alcotest.test_case "carrier check excludes own group" `Quick
          test_mux_carried_recently_excludes_own_group;
      ] );
    ( "shard.multi",
      [
        Alcotest.test_case "bootstrap spreads leaders over regions" `Quick
          test_multi_bootstrap_spreads_leaders;
        Alcotest.test_case "routed traffic reaches every shard" `Quick
          test_multi_routed_traffic_reaches_every_shard;
        Alcotest.test_case "idle heartbeats coalesce, liveness holds" `Quick
          test_multi_idle_heartbeats_coalesce;
        Alcotest.test_case "single group never suppresses" `Quick
          test_single_group_never_suppresses;
        Alcotest.test_case "rebalance respreads piled-up leaders" `Quick
          test_multi_rebalance_respreads_leaders;
        Alcotest.test_case "physical crash fails over every group" `Quick
          test_multi_physical_crash_fails_over_all_groups;
        Alcotest.test_case "config change invalidates the route cache" `Quick
          test_multi_config_change_invalidates_router;
      ] );
    ( "shard.equivalence",
      [
        QCheck_alcotest.to_alcotest prop_sharded_equals_independent;
        Alcotest.test_case "seed 313: restarted leader process is not liveness" `Quick
          test_restarted_leader_process_does_not_fake_liveness;
      ] );
  ]
