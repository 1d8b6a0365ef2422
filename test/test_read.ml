(* Tests for the consistency-tiered read path: leader-lease math and
   revocation (LeaseGuard), the event-driven WAIT_FOR_EXECUTED_GTID
   replacement, the four service tiers end-to-end, and a qcheck
   property that linearizable reads never observe stale values under
   chaos faults. *)

open Helpers

let us = Sim.Engine.us

(* Primary in r1, one follower region: followers serve eventual/bounded
   locally and forward ReadIndex across the region link. *)
let two_region_members () =
  [
    Myraft.Cluster.mysql "mysql1" "r1";
    Myraft.Cluster.logtailer "lt1a" "r1";
    Myraft.Cluster.logtailer "lt1b" "r1";
    Myraft.Cluster.mysql "mysql2" "r2";
    Myraft.Cluster.logtailer "lt2a" "r2";
    Myraft.Cluster.logtailer "lt2b" "r2";
  ]

let with_raft_params f =
  {
    Myraft.Params.default with
    Myraft.Params.raft = f Myraft.Params.default.Myraft.Params.raft;
  }

(* Like [Helpers.direct_write] but returns the committed GTID. *)
let write_gtid ?(table = "t") cluster ~key ~value =
  match Myraft.Cluster.primary cluster with
  | None -> Error "no primary"
  | Some server ->
    let result = ref None in
    Myraft.Server.submit_write server ~table
      ~ops:[ Binlog.Event.Insert { key; value } ]
      ~reply:(fun outcome -> result := Some outcome);
    let ok =
      Myraft.Cluster.run_until cluster ~step:ms ~timeout:(5.0 *. s) (fun () ->
          !result <> None)
    in
    if not ok then Error "write timed out"
    else
      match !result with
      | Some (Myraft.Wire.Committed { gtid }) -> Ok gtid
      | Some (Myraft.Wire.Rejected reason) -> Error reason
      | None -> Error "unreachable"

(* Serve one read on node [id] and run the engine until it settles. *)
let read_sync ?(timeout = 10.0 *. s) cluster id ~level ~key =
  match Myraft.Cluster.server cluster id with
  | None -> Alcotest.failf "no server %s" id
  | Some srv ->
    let result = ref None in
    Myraft.Server.serve_read srv ~level ~table:"t" ~key (fun o -> result := Some o);
    ignore
      (Myraft.Cluster.run_until cluster ~step:ms ~timeout (fun () -> !result <> None));
    match !result with
    | Some o -> o
    | None -> Alcotest.failf "read on %s never settled" id

let expect_value label outcome expected =
  match outcome with
  | Read.Service.Read_value v ->
    Alcotest.(check (option string)) label expected v
  | Read.Service.Read_rejected { reason; _ } ->
    Alcotest.failf "%s: unexpectedly rejected (%s)" label reason

let counter cluster name =
  Obs.Metrics.counter_of (Myraft.Cluster.metrics_snapshot cluster) name

(* ----- leader-lease math ----- *)

(* Default raft params: 3 missed heartbeats x 500 ms - 50 ms margin =
   a 1450 ms lease duration. *)
let lease_duration p =
  (float_of_int p.Raft.Node.missed_heartbeats *. p.Raft.Node.heartbeat_interval)
  -. p.Raft.Node.lease_drift_margin

let test_lease_valid_on_healthy_leader () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  ignore (write_n cluster 3);
  let raft = Option.get (Myraft.Cluster.raft_of cluster "mysql1") in
  Alcotest.(check bool) "lease valid" true (Raft.Node.lease_valid raft);
  let slack =
    Raft.Node.lease_until raft -. Sim.Engine.now (Myraft.Cluster.engine cluster)
  in
  Alcotest.(check bool) "expiry within one lease duration" true
    (slack > 0.0 && slack <= lease_duration Myraft.Params.default.Myraft.Params.raft)

let test_drift_margin_shifts_expiry () =
  (* Same seed, params differing only in the drift margin: identical
     event timelines, so the expiries differ by exactly the margin
     delta. *)
  let until margin =
    let params =
      with_raft_params (fun r -> { r with Raft.Node.lease_drift_margin = margin })
    in
    let cluster = bootstrapped ~params ~members:(two_region_members ()) () in
    Myraft.Cluster.run_for cluster (2.0 *. s);
    Raft.Node.lease_until (Option.get (Myraft.Cluster.raft_of cluster "mysql1"))
  in
  let m1 = 50.0 *. ms and m2 = 250.0 *. ms in
  Alcotest.(check (float 1.0))
    "expiry shifted by the margin delta" (m2 -. m1)
    (until m1 -. until m2)

let test_excessive_margin_disables_lease () =
  (* Margin at the election timeout: lease duration <= 0, so the fast
     path is off and linearizable reads pay the confirmation round. *)
  let params =
    with_raft_params (fun r ->
        { r with Raft.Node.lease_drift_margin = 1_500.0 *. ms })
  in
  let cluster = bootstrapped ~params ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  check_ok "write" (direct_write cluster ~key:"k" ~value:"v");
  let raft = Option.get (Myraft.Cluster.raft_of cluster "mysql1") in
  Alcotest.(check bool) "lease never valid" false (Raft.Node.lease_valid raft);
  expect_value "read still served" (read_sync cluster "mysql1" ~level:Read.Level.Linearizable ~key:"k")
    (Some "v");
  Alcotest.(check bool) "served by a quorum round" true
    (counter cluster "read.quorum_served" >= 1);
  Alcotest.(check int) "no lease serves" 0 (counter cluster "read.lease_served")

let test_lease_expires_without_acks () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  let raft = Option.get (Myraft.Cluster.raft_of cluster "mysql1") in
  Alcotest.(check bool) "lease valid before isolation" true (Raft.Node.lease_valid raft);
  Myraft.Cluster.isolate cluster "mysql1";
  (* Sit out two election timeouts: nobody acks, so the lease runs off
     its last quorum-acked send time and dies while the node still
     believes itself leader. *)
  Myraft.Cluster.run_for cluster (3.0 *. s);
  Alcotest.(check bool) "still (stale) leader" true (Raft.Node.is_leader raft);
  Alcotest.(check bool) "lease expired" false (Raft.Node.lease_valid raft)

let test_lease_revoked_on_demotion () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  Myraft.Cluster.isolate cluster "mysql1";
  (* the stale leader still claims the role, so look for any OTHER node
     that won an election *)
  let other_leader () =
    List.exists
      (fun id ->
        id <> "mysql1"
        &&
        match Myraft.Cluster.raft_of cluster id with
        | Some r -> Raft.Node.is_leader r
        | None -> false)
      (Myraft.Cluster.member_ids cluster)
  in
  let elected =
    Myraft.Cluster.run_until cluster ~timeout:(60.0 *. s) (fun () -> other_leader ())
  in
  Alcotest.(check bool) "another leader elected" true elected;
  Myraft.Cluster.heal cluster "mysql1";
  let demoted =
    Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
        let raft = Option.get (Myraft.Cluster.raft_of cluster "mysql1") in
        not (Raft.Node.is_leader raft))
  in
  Alcotest.(check bool) "old leader demoted" true demoted;
  let raft = Option.get (Myraft.Cluster.raft_of cluster "mysql1") in
  Alcotest.(check bool) "lease gone" false (Raft.Node.lease_valid raft);
  Alcotest.(check bool) "revocation counted" true
    (counter cluster "raft.lease_revocations" >= 1)

let test_lease_blocked_during_transfer () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  ignore (write_n cluster 2);
  let raft = Option.get (Myraft.Cluster.raft_of cluster "mysql1") in
  Alcotest.(check bool) "lease valid before transfer" true (Raft.Node.lease_valid raft);
  (* LeaseGuard: initiating the transfer voids the lease BEFORE the
     TimeoutNow mock election can elect the target. *)
  (match Myraft.Cluster.transfer_leadership cluster ~target:"mysql2" with
  | Ok () -> ()
  | Error e -> Alcotest.failf "transfer: %s" e);
  Alcotest.(check bool) "lease blocked at initiation" true (Raft.Node.lease_blocked raft);
  Alcotest.(check bool) "lease invalid at initiation" false (Raft.Node.lease_valid raft);
  let done_ =
    Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
        Myraft.Cluster.raft_leader cluster = Some "mysql2")
  in
  Alcotest.(check bool) "target took over" true done_;
  Myraft.Cluster.run_for cluster (2.0 *. s);
  Alcotest.(check bool) "old leader has no lease" false (Raft.Node.lease_valid raft);
  let raft2 = Option.get (Myraft.Cluster.raft_of cluster "mysql2") in
  Alcotest.(check bool) "new leader earns its own lease" true
    (Raft.Node.lease_valid raft2)

(* ----- event-driven WAIT_FOR_EXECUTED_GTID ----- *)

let test_gtid_wait_fires_on_commit_event () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let g1 =
    match write_gtid cluster ~key:"k1" ~value:"v1" with
    | Ok g -> g
    | Error e -> Alcotest.failf "seed write: %s" e
  in
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  let engine = Myraft.Cluster.engine cluster in
  (* The primary assigns consecutive gnos, so the next commit's GTID is
     known before it exists — park a waiter on it. *)
  let next =
    Binlog.Gtid.make ~source:(Binlog.Gtid.source g1) ~gno:(Binlog.Gtid.gno g1 + 1)
  in
  let commit_time = ref neg_infinity in
  Storage.Engine.subscribe_commit (Myraft.Server.storage primary) (fun gtid _ ->
      if Binlog.Gtid.equal gtid next then commit_time := Sim.Engine.now engine);
  let fire_time = ref neg_infinity and fired = ref None in
  Myraft.Server.wait_for_executed_gtid primary next ~timeout:(5.0 *. s)
    ~k:(fun ok ->
      fired := Some ok;
      fire_time := Sim.Engine.now engine);
  check_ok "second write" (direct_write cluster ~key:"k2" ~value:"v2");
  Alcotest.(check (option bool)) "waiter fired true" (Some true) !fired;
  Alcotest.(check bool) "commit observed" true (!commit_time > neg_infinity);
  (* The regression: the waiter fires AT the engine-commit instant, not
     on the next tick of the old 500 us busy-poll. *)
  Alcotest.(check (float 0.0)) "fired at the commit instant" !commit_time !fire_time

let test_gtid_wait_timeout () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  let engine = Myraft.Cluster.engine cluster in
  let never = Binlog.Gtid.make ~source:"mysql1" ~gno:999_999 in
  let t0 = Sim.Engine.now engine in
  let fire_time = ref neg_infinity and fired = ref None in
  Myraft.Server.wait_for_executed_gtid primary never ~timeout:(50.0 *. ms)
    ~k:(fun ok ->
      fired := Some ok;
      fire_time := Sim.Engine.now engine);
  Myraft.Cluster.run_for cluster (200.0 *. ms);
  Alcotest.(check (option bool)) "timed out false" (Some false) !fired;
  Alcotest.(check (float (10.0 *. us))) "at the deadline" (t0 +. (50.0 *. ms)) !fire_time

let test_gtid_wait_already_committed () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let g =
    match write_gtid cluster ~key:"k" ~value:"v" with
    | Ok g -> g
    | Error e -> Alcotest.failf "write: %s" e
  in
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  let fired = ref None in
  Myraft.Server.wait_for_executed_gtid primary g ~timeout:(1.0 *. s)
    ~k:(fun ok -> fired := Some ok);
  (* no engine run: the answer must be synchronous *)
  Alcotest.(check (option bool)) "synchronous true" (Some true) !fired

(* ----- applied-through waiters ----- *)

(* Waiters parked at mixed indexes on a follower wake exactly once, no
   earlier than their index, and in the order the waiter list always
   had: of two waiters, the later-registered one wakes first unless its
   index is higher (newest first within a release). *)
let test_apply_waiters_wake_in_list_order () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let follower = Option.get (Myraft.Cluster.server cluster "mysql2") in
  let woken = ref [] (* (id, index), newest first *) and registered = ref [] in
  let register index =
    let id = List.length !registered in
    registered := !registered @ [ (id, index) ];
    Myraft.Server.wait_applied follower index (fun () -> woken := (id, index) :: !woken)
  in
  let base = Myraft.Server.applied_through follower in
  List.iter register [ base + 3; base + 1; base + 3; base + 2; base + 1; base + 100_000 ];
  Alcotest.(check int) "nothing wakes before the cursor moves" 0 (List.length !woken);
  register base;
  Alcotest.(check (list int)) "an index already applied wakes at once" [ 6 ]
    (List.map fst !woken);
  register (base + 2);
  for i = 1 to 4 do
    check_ok "write" (direct_write cluster ~key:(Printf.sprintf "w%d" i) ~value:"v")
  done;
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let mid = Myraft.Server.applied_through follower in
  List.iter register [ mid + 2; mid + 1; mid + 2 ];
  for i = 5 to 8 do
    check_ok "write" (direct_write cluster ~key:(Printf.sprintf "w%d" i) ~value:"v")
  done;
  Myraft.Cluster.run_for cluster (1.0 *. s);
  (* a lone waiter below the far one still wakes *)
  register (Myraft.Server.applied_through follower + 3);
  for i = 9 to 12 do
    check_ok "write" (direct_write cluster ~key:(Printf.sprintf "w%d" i) ~value:"v")
  done;
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let final = Myraft.Server.applied_through follower in
  let order = List.rev !woken in
  List.iter
    (fun (id, index) ->
      let times = List.length (List.filter (fun (w, _) -> w = id) order) in
      Alcotest.(check int)
        (Printf.sprintf "waiter %d (index %d) wakes %s" id index
           (if index <= final then "once" else "never"))
        (if index <= final then 1 else 0)
        times)
    !registered;
  let position id =
    let rec go i = function
      | [] -> max_int
      | (w, _) :: rest -> if w = id then i else go (i + 1) rest
    in
    go 0 order
  in
  List.iter
    (fun (a, ia) ->
      List.iter
        (fun (b, ib) ->
          if a < b && ia >= ib && ia <= final && a <> 6 then
            Alcotest.(check bool)
              (Printf.sprintf "waiter %d wakes before waiter %d" b a)
              true
              (position b < position a))
        !registered)
    !registered

(* ----- the four tiers end-to-end ----- *)

let test_eventual_serves_locally () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (1.0 *. s);
  check_ok "write" (direct_write cluster ~key:"k" ~value:"v");
  Myraft.Cluster.run_for cluster (1.0 *. s);
  expect_value "follower eventual"
    (read_sync cluster "mysql2" ~level:Read.Level.Eventual ~key:"k")
    (Some "v");
  expect_value "missing row reads null"
    (read_sync cluster "mysql2" ~level:Read.Level.Eventual ~key:"nope")
    None

let test_linearizable_lease_fast_path () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  check_ok "write" (direct_write cluster ~key:"k" ~value:"v");
  expect_value "leader linearizable"
    (read_sync cluster "mysql1" ~level:Read.Level.Linearizable ~key:"k")
    (Some "v");
  Alcotest.(check bool) "lease-served" true (counter cluster "read.lease_served" >= 1)

let test_linearizable_quorum_round_when_lease_off () =
  let params = with_raft_params (fun r -> { r with Raft.Node.use_leader_lease = false }) in
  let cluster = bootstrapped ~params ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  check_ok "write" (direct_write cluster ~key:"k" ~value:"v");
  expect_value "leader linearizable"
    (read_sync cluster "mysql1" ~level:Read.Level.Linearizable ~key:"k")
    (Some "v");
  Alcotest.(check bool) "readindex round ran" true
    (counter cluster "raft.readindex_rounds" >= 1);
  Alcotest.(check int) "no lease serves" 0 (counter cluster "read.lease_served")

let test_linearizable_follower_forwards () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  check_ok "write" (direct_write cluster ~key:"k" ~value:"v");
  expect_value "follower linearizable"
    (read_sync cluster "mysql2" ~level:Read.Level.Linearizable ~key:"k")
    (Some "v");
  Alcotest.(check bool) "forwarded to the leader" true
    (counter cluster "raft.readindex_forwarded" >= 1)

let test_linearizable_sees_latest_write () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (1.0 *. s);
  check_ok "w1" (direct_write cluster ~key:"k" ~value:"v1");
  check_ok "w2" (direct_write cluster ~key:"k" ~value:"v2");
  (* no settling run: the read must still reflect v2 on both roles *)
  expect_value "leader sees v2"
    (read_sync cluster "mysql1" ~level:Read.Level.Linearizable ~key:"k")
    (Some "v2");
  expect_value "follower sees v2"
    (read_sync cluster "mysql2" ~level:Read.Level.Linearizable ~key:"k")
    (Some "v2")

let test_ryw_waits_for_session_gtid () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let g =
    match write_gtid cluster ~key:"k" ~value:"mine" with
    | Ok g -> g
    | Error e -> Alcotest.failf "write: %s" e
  in
  expect_value "follower RYW waits for the token's apply"
    (read_sync cluster "mysql2" ~level:(Read.Level.Read_your_writes (Some g)) ~key:"k")
    (Some "mine");
  expect_value "no token degrades to eventual"
    (read_sync cluster "mysql2" ~level:(Read.Level.Read_your_writes None) ~key:"k")
    (Some "mine")

let test_bounded_rejects_when_stale () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (1.0 *. s);
  check_ok "write" (direct_write cluster ~key:"k" ~value:"v");
  Myraft.Cluster.run_for cluster (1.0 *. s);
  Sim.Network.cut_regions (Myraft.Cluster.network cluster) "r1" "r2";
  Myraft.Cluster.run_for cluster (1.0 *. s);
  (match read_sync cluster "mysql2" ~level:(Read.Level.Bounded_staleness (50.0 *. ms)) ~key:"k" with
  | Read.Service.Read_rejected { reason; retry_after } ->
    Alcotest.(check bool) "reason names staleness" true (contains reason "staleness");
    Alcotest.(check bool) "retry hint present" true (retry_after <> None)
  | Read.Service.Read_value _ ->
    Alcotest.fail "cut-off follower must not serve a 50 ms bound");
  (* the leader is its own anchor and keeps serving *)
  expect_value "leader bounded"
    (read_sync cluster "mysql1" ~level:(Read.Level.Bounded_staleness (50.0 *. ms)) ~key:"k")
    (Some "v")

(* ----- answered at dispatch vs parked ----- *)

(* Serve one read on [srv] and report whether it was answered before
   [serve_read] returned, with the ref that receives its outcome. *)
let serve_now srv ~level ~key =
  let result = ref None in
  Myraft.Server.serve_read srv ~level ~table:"t" ~key (fun o -> result := Some o);
  (!result <> None, result)

let settle cluster result =
  ignore (Myraft.Cluster.run_until cluster ~step:ms ~timeout:(10.0 *. s) (fun () -> !result <> None));
  match !result with Some o -> o | None -> Alcotest.fail "read never settled"

(* The lease is valid but the leader's engine has not applied through
   the commit index yet (a write is between consensus and its engine
   commit): the lease read parks, answers once the engine applies, and
   counts once as lease-served and once as a served linearizable read. *)
let test_lease_read_parks_until_applied () =
  let cluster = bootstrapped ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  check_ok "first write" (direct_write cluster ~key:"k" ~value:"v1");
  let leader = Option.get (Myraft.Cluster.server cluster "mysql1") in
  let raft = Myraft.Server.raft leader in
  Myraft.Server.submit_write leader ~table:"t"
    ~ops:[ Binlog.Event.Insert { key = "k"; value = "v2" } ]
    ~reply:(fun _ -> ());
  let before = Raft.Node.last_index raft in
  ignore
    (Myraft.Cluster.run_until cluster ~step:(10.0 *. us) ~timeout:(1.0 *. s) (fun () ->
         Raft.Node.last_index raft > before));
  let target = Raft.Node.last_index raft in
  let in_window () =
    Raft.Node.commit_index raft >= target && Myraft.Server.applied_through leader < target
  in
  ignore
    (Myraft.Cluster.run_until cluster ~step:(10.0 *. us) ~timeout:(1.0 *. s) (fun () ->
         in_window ()));
  Alcotest.(check bool) "committed but not applied" true (in_window ());
  Alcotest.(check bool) "lease valid" true (Raft.Node.lease_valid raft);
  let lease0 = counter cluster "read.lease_served"
  and served0 = counter cluster "read.linearizable.served" in
  let answered, result = serve_now leader ~level:Read.Level.Linearizable ~key:"k" in
  Alcotest.(check bool) "parked, not answered at dispatch" false answered;
  expect_value "answers after the apply" (settle cluster result) (Some "v2");
  Alcotest.(check int) "lease-served once" 1 (counter cluster "read.lease_served" - lease0);
  Alcotest.(check int) "served once" 1
    (counter cluster "read.linearizable.served" - served0);
  Alcotest.(check int) "no round" 0 (counter cluster "read.quorum_served")

(* Without a lease a linearizable read parks on a ReadIndex round and
   counts as quorum-served, not lease-served. *)
let test_leaseless_read_parks_on_round () =
  let params = with_raft_params (fun r -> { r with Raft.Node.use_leader_lease = false }) in
  let cluster = bootstrapped ~params ~members:(two_region_members ()) () in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  check_ok "write" (direct_write cluster ~key:"k" ~value:"v");
  Myraft.Cluster.run_for cluster (100.0 *. ms);
  let leader = Option.get (Myraft.Cluster.server cluster "mysql1") in
  let quorum0 = counter cluster "read.quorum_served" in
  let answered, result = serve_now leader ~level:Read.Level.Linearizable ~key:"k" in
  Alcotest.(check bool) "parked on the round" false answered;
  expect_value "answers after the round" (settle cluster result) (Some "v");
  Alcotest.(check int) "quorum-served once" 1 (counter cluster "read.quorum_served" - quorum0);
  Alcotest.(check int) "never lease-served" 0 (counter cluster "read.lease_served")

(* ----- the service deadline, over a bare engine ----- *)

(* A service whose linearizable reads resolve read index 1 at once and
   read locally once [applied] reaches it; a read that parks hands its
   continuation to [parked]. *)
let bare_service engine ~applied ~parked =
  let metrics = Obs.Metrics.create () in
  let ops =
    {
      Read.Service.now = (fun () -> Sim.Engine.now engine);
      schedule = (fun ~delay f -> Sim.Engine.schedule engine ~delay f);
      read_index = (fun k -> k (Ok 1));
      lease_read_index = (fun () -> 1);
      staleness_anchor = (fun () -> (neg_infinity, 0));
      applied_index = (fun () -> !applied);
      wait_applied = (fun _ k -> parked := Some k);
      wait_gtid = (fun _ ~timeout:_ k -> k false);
      get = (fun ~table:_ ~key:_ -> Some "v");
    }
  in
  (Read.Service.create ~metrics ~ops (), metrics)

let serve_linearizable svc engine =
  let result = ref None in
  Read.Service.serve svc ~level:Read.Level.Linearizable ~table:"t" ~key:"k"
    (fun result o -> result := Some (o, Sim.Engine.now engine))
    result;
  result

(* An apply index that never arrives: the read is rejected exactly at
   start + read_timeout and counted as a timeout. *)
let test_parked_read_times_out () =
  let engine = Sim.Engine.create () in
  Sim.Engine.run_until engine (3.0 *. ms);
  let svc, metrics = bare_service engine ~applied:(ref 0) ~parked:(ref None) in
  let start = Sim.Engine.now engine in
  let timeout = Read.Service.default_params.Read.Service.read_timeout in
  let result = serve_linearizable svc engine in
  Sim.Engine.run_until engine (start +. timeout -. us);
  Alcotest.(check bool) "still parked just before the deadline" true (!result = None);
  Sim.Engine.run_until engine (start +. timeout);
  (match !result with
  | Some (Read.Service.Read_rejected { reason; _ }, at) ->
    Alcotest.(check string) "reason" "read timed out" reason;
    Alcotest.(check (float 0.0)) "rejected at start + read_timeout" (start +. timeout) at
  | _ -> Alcotest.fail "parked read must time out");
  Alcotest.(check int) "read.timeouts" 1
    (Obs.Metrics.counter_of (Obs.Metrics.snapshot metrics) "read.timeouts")

(* A lease read answered during dispatch schedules nothing. *)
let test_sync_read_arms_no_deadline () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.schedule engine ~delay:s ignore);
  let svc, _ = bare_service engine ~applied:(ref 1) ~parked:(ref None) in
  let result = serve_linearizable svc engine in
  (match !result with
  | Some (Read.Service.Read_value v, _) -> Alcotest.(check (option string)) "value" (Some "v") v
  | _ -> Alcotest.fail "lease read must answer synchronously");
  Alcotest.(check int) "nothing pending" 1 (Sim.Engine.pending engine);
  (* armed-then-cancelled would still sit in the queue *)
  Alcotest.(check int) "no deadline queued" 1 (Sim.Engine.queue_length engine)

(* A parked read that completes cancels its deadline. *)
let test_settled_read_cancels_deadline () =
  let engine = Sim.Engine.create () in
  ignore (Sim.Engine.schedule engine ~delay:s ignore);
  let applied = ref 0 and parked = ref None in
  let svc, metrics = bare_service engine ~applied ~parked in
  let result = serve_linearizable svc engine in
  Alcotest.(check int) "deadline armed while parked" 2 (Sim.Engine.pending engine);
  Sim.Engine.run_until engine (10.0 *. ms);
  applied := 1;
  (match !parked with Some k -> k () | None -> Alcotest.fail "read did not park");
  (match !result with
  | Some (Read.Service.Read_value _, _) -> ()
  | _ -> Alcotest.fail "parked read must complete once applied");
  Alcotest.(check int) "deadline cancelled" 1 (Sim.Engine.pending engine);
  Sim.Engine.run_until engine (10.0 *. s);
  Alcotest.(check int) "read.timeouts" 0
    (Obs.Metrics.counter_of (Obs.Metrics.snapshot metrics) "read.timeouts")

(* ----- allocation pins: the read path ----- *)

(* A linearizable read a lease-holding leader answers at dispatch, from
   the Read_request's arrival to its Read_reply's send (the network's
   drop of the reply included, its delivery excluded): the reply
   message, its outcome and the engine's [Some value].  Measured at 7.0
   words; a closure per read for the reply, or a service-level [finish]
   closure, pushes it past the bound. *)
let leader_read_bound = 7

(* A generator read opened and settled: the latency sample's float box.
   Measured at 2.0 words; a hashtable lane (bucket, tuple, option)
   pushes it past the bound. *)
let lane_bound = 2

let test_leader_read_words () =
  let words, _ = Kit.Alloc.leader_read () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per lease read <= %d" words leader_read_bound)
    true
    (words <= float_of_int leader_read_bound)

let test_lane_words () =
  let words, _ = Kit.Alloc.lane () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per lane open + settle <= %d" words lane_bound)
    true
    (words <= float_of_int lane_bound)

(* A parked read whose apply arrives only after its deadline: the
   deadline rejects it, and the late wake-up answers nothing more. *)
let test_timed_out_read_rejects_once () =
  let engine = Sim.Engine.create () in
  let applied = ref 0 and parked = ref None in
  let svc, metrics = bare_service engine ~applied ~parked in
  let replies = ref [] in
  Read.Service.serve svc ~level:Read.Level.Linearizable ~table:"t" ~key:"k"
    (fun replies o -> replies := o :: !replies)
    replies;
  Alcotest.(check int) "parked" 0 (List.length !replies);
  Sim.Engine.run_for engine (10.0 *. s);
  applied := 1;
  (match !parked with Some k -> k () | None -> Alcotest.fail "read did not park");
  (match !replies with
  | [ Read.Service.Read_rejected { reason; _ } ] ->
    Alcotest.(check string) "reason" "read timed out" reason
  | _ -> Alcotest.failf "expected one rejection, got %d replies" (List.length !replies));
  let snap = Obs.Metrics.snapshot metrics in
  Alcotest.(check int) "rejected once" 1 (Obs.Metrics.counter_of snap "read.linearizable.rejected");
  Alcotest.(check int) "never served" 0 (Obs.Metrics.counter_of snap "read.linearizable.served");
  Alcotest.(check int) "one timeout" 1 (Obs.Metrics.counter_of snap "read.timeouts")

(* ----- chaos property ----- *)

(* Under dropped messages, region partitions and leader crashes, a
   [Linearizable] read must never return a value older than a write
   acknowledged before the read was issued — with the lease fast path
   both on (even seeds) and off (odd seeds).  The linreg checker inside
   the nemesis run reports any such observation as a violation. *)
let prop_lin_reads_never_stale =
  QCheck.Test.make ~name:"linearizable reads never stale under chaos" ~count:4
    QCheck.(int_range 1 10_000)
    (fun seed ->
      let spec =
        match
          Chaos.Schedule.with_faults Chaos.Schedule.default
            [ "drop"; "partition"; "leader-crash" ]
        with
        | Ok s -> s
        | Error e -> failwith e
      in
      let lease = seed mod 2 = 0 in
      let r = Chaos.Nemesis.run ~spec ~lease ~seed ~steps:16 () in
      r.Chaos.Nemesis.r_lin_violations = 0
      && r.Chaos.Nemesis.r_violations = []
      && r.Chaos.Nemesis.r_converged)

let suites =
  [
    ( "read.dispatch",
      [
        Alcotest.test_case "lease read parks until the engine applies" `Quick
          test_lease_read_parks_until_applied;
        Alcotest.test_case "leaseless read parks on a round" `Quick
          test_leaseless_read_parks_on_round;
      ] );
    ( "read.alloc",
      [
        Alcotest.test_case "words per lease read at dispatch" `Quick test_leader_read_words;
        Alcotest.test_case "words per generator lane open + settle" `Quick test_lane_words;
      ] );
    ( "read.lease",
      [
        Alcotest.test_case "valid on a healthy leader" `Quick
          test_lease_valid_on_healthy_leader;
        Alcotest.test_case "drift margin shifts expiry exactly" `Quick
          test_drift_margin_shifts_expiry;
        Alcotest.test_case "margin at election timeout disables the lease" `Quick
          test_excessive_margin_disables_lease;
        Alcotest.test_case "expires when acks stop" `Quick test_lease_expires_without_acks;
        Alcotest.test_case "revoked on demotion" `Quick test_lease_revoked_on_demotion;
        Alcotest.test_case "blocked for the transfer span (LeaseGuard)" `Quick
          test_lease_blocked_during_transfer;
      ] );
    ( "read.gtid_wait",
      [
        Alcotest.test_case "fires on the commit event, not a poll tick" `Quick
          test_gtid_wait_fires_on_commit_event;
        Alcotest.test_case "timeout fires at the deadline" `Quick test_gtid_wait_timeout;
        Alcotest.test_case "already-committed answers synchronously" `Quick
          test_gtid_wait_already_committed;
      ] );
    ( "read.apply_wait",
      [
        Alcotest.test_case "waiters wake once, in list order" `Quick
          test_apply_waiters_wake_in_list_order;
      ] );
    ( "read.tiers",
      [
        Alcotest.test_case "eventual serves locally on a follower" `Quick
          test_eventual_serves_locally;
        Alcotest.test_case "linearizable via the lease fast path" `Quick
          test_linearizable_lease_fast_path;
        Alcotest.test_case "linearizable pays a round with the lease off" `Quick
          test_linearizable_quorum_round_when_lease_off;
        Alcotest.test_case "follower forwards ReadIndex to the leader" `Quick
          test_linearizable_follower_forwards;
        Alcotest.test_case "linearizable reflects the latest write" `Quick
          test_linearizable_sees_latest_write;
        Alcotest.test_case "read-your-writes waits for the session GTID" `Quick
          test_ryw_waits_for_session_gtid;
        Alcotest.test_case "bounded staleness rejects a cut-off follower" `Quick
          test_bounded_rejects_when_stale;
      ] );
    ( "read.deadline",
      [
        Alcotest.test_case "parked read times out at start + read_timeout" `Quick
          test_parked_read_times_out;
        Alcotest.test_case "synchronous read arms no deadline" `Quick
          test_sync_read_arms_no_deadline;
        Alcotest.test_case "timed-out read rejects once" `Quick
          test_timed_out_read_rejects_once;
        Alcotest.test_case "settled read cancels its deadline" `Quick
          test_settled_read_cancels_deadline;
      ] );
    ( "read.chaos",
      [ QCheck_alcotest.to_alcotest prop_lin_reads_never_stale ] );
  ]
