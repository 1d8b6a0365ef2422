(* Coverage for the smaller modules: Trace, the generic Probe,
   Service_discovery, Latency models, Raft message sizing/rendering, and
   the Table-1 classifier. *)

let ms = Sim.Engine.ms
let s = Sim.Engine.s

(* ----- trace ----- *)

let test_trace_records_with_virtual_time () =
  let e = Sim.Engine.create () in
  let trace = Sim.Trace.create e in
  Sim.Trace.record trace ~tag:"a" "first %d" 1;
  ignore
    (Sim.Engine.schedule e ~delay:(5.0 *. ms) (fun () ->
         Sim.Trace.record trace ~tag:"b" "second"));
  Sim.Engine.run_for e (10.0 *. ms);
  match Sim.Trace.entries trace with
  | [ e1; e2 ] ->
    Alcotest.(check string) "message formatted" "first 1" e1.Sim.Trace.message;
    Alcotest.(check (float 0.01)) "timestamped" (5.0 *. ms) e2.Sim.Trace.time;
    Alcotest.(check int) "tag filter" 1 (List.length (Sim.Trace.entries_with_tag trace "b"))
  | l -> Alcotest.failf "expected 2 entries, got %d" (List.length l)

(* ----- generic probe ----- *)

let test_probe_counts_and_downtime () =
  let e = Sim.Engine.create () in
  (* succeed until t=100ms, fail until 300ms, then succeed again *)
  let issue ~on_outcome =
    let now = Sim.Engine.now e in
    on_outcome (now < 100.0 *. ms || now > 300.0 *. ms)
  in
  let probe = Sim.Probe.start ~interval:(10.0 *. ms) e ~issue in
  Sim.Engine.run_for e (500.0 *. ms);
  Sim.Probe.stop probe;
  Alcotest.(check bool) "successes" true (Sim.Probe.successes probe > 20);
  Alcotest.(check bool) "failures" true (Sim.Probe.failures probe >= 19);
  let downtime = Sim.Probe.max_downtime probe ~start_time:0.0 ~end_time:(500.0 *. ms) in
  if downtime < 180.0 *. ms || downtime > 240.0 *. ms then
    Alcotest.failf "downtime %.1fms outside the outage window" (downtime /. ms)

let test_probe_timeout_counts_failure () =
  let e = Sim.Engine.create () in
  let issue ~on_outcome = ignore on_outcome (* never answers *) in
  let probe = Sim.Probe.start ~interval:(10.0 *. ms) ~timeout:(20.0 *. ms) e ~issue in
  Sim.Engine.run_for e (200.0 *. ms);
  Sim.Probe.stop probe;
  Alcotest.(check int) "no successes" 0 (Sim.Probe.successes probe);
  Alcotest.(check bool) "timeouts recorded" true (Sim.Probe.failures probe > 10)

(* Regression: stopping with a probe still in flight must not let the
   late answer or the pending timeout record an outcome — a stopped
   probe's counters are final. *)
let test_probe_stop_mid_probe () =
  let e = Sim.Engine.create () in
  let pending = ref [] in
  let issue ~on_outcome = pending := on_outcome :: !pending in
  let probe = Sim.Probe.start ~interval:(10.0 *. ms) ~timeout:(20.0 *. ms) e ~issue in
  Sim.Engine.run_for e (12.0 *. ms);
  Alcotest.(check bool) "a probe is in flight" true (!pending <> []);
  Alcotest.(check int) "nothing settled yet" 0
    (Sim.Probe.successes probe + Sim.Probe.failures probe);
  Sim.Probe.stop probe;
  (* late answers arrive after stop... *)
  List.iter (fun answer -> answer false) !pending;
  (* ...and virtual time runs well past every pending timeout *)
  Sim.Engine.run_for e (200.0 *. ms);
  Alcotest.(check int) "no post-stop successes" 0 (Sim.Probe.successes probe);
  Alcotest.(check int) "no post-stop failures" 0 (Sim.Probe.failures probe)

(* ----- service discovery ----- *)

let test_discovery_publish_delay () =
  let e = Sim.Engine.create () in
  let d = Myraft.Service_discovery.create e in
  Myraft.Service_discovery.publish_primary d ~replicaset:"rs" ~primary:"m1"
    ~delay:(30.0 *. ms);
  Alcotest.(check (option string)) "not yet visible" None
    (Myraft.Service_discovery.primary_of d ~replicaset:"rs");
  Sim.Engine.run_for e (50.0 *. ms);
  Alcotest.(check (option string)) "visible after delay" (Some "m1")
    (Myraft.Service_discovery.primary_of d ~replicaset:"rs");
  (* later publication supersedes *)
  Myraft.Service_discovery.publish_primary d ~replicaset:"rs" ~primary:"m2"
    ~delay:(10.0 *. ms);
  Sim.Engine.run_for e (20.0 *. ms);
  Alcotest.(check (option string)) "superseded" (Some "m2")
    (Myraft.Service_discovery.primary_of d ~replicaset:"rs");
  Alcotest.(check int) "history kept" 2
    (List.length (Myraft.Service_discovery.publications d))

(* ----- latency models ----- *)

let test_latency_pair_base_stable () =
  let a = Sim.Latency.pair_base ~lo:10.0 ~hi:20.0 "r1" "r2" in
  let b = Sim.Latency.pair_base ~lo:10.0 ~hi:20.0 "r2" "r1" in
  Alcotest.(check (float 0.001)) "symmetric" a b;
  Alcotest.(check bool) "within bounds" true (a >= 10.0 && a <= 20.0)

let test_latency_override_scopes_to_pair () =
  let model =
    Sim.Latency.override Sim.Latency.default ~region_a:"clients" ~region_b:"r1" ~lo:100.0
      ~hi:101.0
  in
  let law src dst = Sim.Latency.law model ~src ~dst in
  let pinned = { Sim.Latency.lo = 100.0; span = 1.0 } in
  Alcotest.(check bool) "override applies" true (law "clients" "r1" = pinned);
  Alcotest.(check bool) "both directions" true (law "r1" "clients" = pinned);
  let base = Sim.Latency.pair_base ~lo:15_000.0 ~hi:40_000.0 "r1" "r2" in
  Alcotest.(check bool) "other pairs untouched" true
    (law "r1" "r2" = { Sim.Latency.lo = base; span = base *. 0.05 });
  Alcotest.(check bool) "in-region untouched" true
    (law "r1" "r1" = { Sim.Latency.lo = 90.0; span = 90.0 })

(* ----- raft messages ----- *)

let sample_entry size =
  Binlog.Entry.make
    ~opid:(Binlog.Opid.make ~term:1 ~index:1)
    (Binlog.Entry.Transaction
       {
         gtid = Binlog.Gtid.make ~source:"s" ~gno:1;
         table = "t";
         ops = [ Binlog.Event.Insert { key = "k"; value = String.make size 'x' } ];
         xid = 0;
       })

let ae payload =
  Raft.Message.Append_entries
    {
      term = 3;
      leader_id = "n1";
      leader_region = "r1";
      prev_opid = Binlog.Opid.zero;
      payload;
      commit_index = 7;
      seq = 9;
      reply_route = [];
      leader_time = 0.0;
      leader_last_index = 9;
      cfg_id = Raft.Types.cfg_id_zero;
      cfg = None;
    }

let test_message_sizes_scale_with_payload () =
  let small = Raft.Message.size (ae (Raft.Message.Entries [| sample_entry 10 |])) in
  let big = Raft.Message.size (ae (Raft.Message.Entries [| sample_entry 1000 |])) in
  let refs =
    Raft.Message.size (ae (Raft.Message.Refs { first_index = 1; last_index = 64; last_term = 3 }))
  in
  Alcotest.(check bool) "payload dominates" true (big > small + 900);
  Alcotest.(check bool) "PROXY_OP is metadata-sized" true (refs < 100);
  Alcotest.(check bool) "heartbeat smaller than data" true
    (Raft.Message.size (ae (Raft.Message.Entries [||])) < small)

let test_message_describe_mentions_key_facts () =
  let text = Raft.Message.describe (ae (Raft.Message.Refs { first_index = 5; last_index = 9; last_term = 3 })) in
  Alcotest.(check bool) "PROXY_OP named" true (Helpers.contains text "PROXY_OP");
  let hb = Raft.Message.describe (ae (Raft.Message.Entries [||])) in
  Alcotest.(check bool) "heartbeat named" true (Helpers.contains hb "heartbeat");
  let proxied =
    Raft.Message.describe (Raft.Message.Proxied { next_hops = [ "x"; "y" ]; inner = ae (Raft.Message.Entries [||]) })
  in
  Alcotest.(check bool) "route shown" true (Helpers.contains proxied "x,y")

(* ----- Table-1 classifier ----- *)

let member ~voter ~kind =
  { Raft.Types.id = "m"; region = "r1"; voter; kind }

let test_roles_classify () =
  Alcotest.(check string) "leader" "Leader"
    (Myraft.Roles.classify (member ~voter:true ~kind:Raft.Types.Mysql_server) ~is_leader:true);
  Alcotest.(check string) "follower" "Follower"
    (Myraft.Roles.classify (member ~voter:true ~kind:Raft.Types.Mysql_server) ~is_leader:false);
  Alcotest.(check string) "learner" "Learner"
    (Myraft.Roles.classify (member ~voter:false ~kind:Raft.Types.Mysql_server) ~is_leader:false);
  Alcotest.(check string) "witness" "Witness"
    (Myraft.Roles.classify (member ~voter:true ~kind:Raft.Types.Logtailer) ~is_leader:false)

(* ----- CDC attachment point ----- *)

let test_cdc_from_index_skips_history () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  ignore (Helpers.write_n cluster 10);
  Myraft.Cluster.run_for cluster (1.0 *. s);
  (* attach after the first 5 transactions (bootstrap noop is index 1) *)
  let cdc = Downstream.Cdc.start ~source:"mysql1" ~from_index:7 cluster in
  ignore (Helpers.write_n ~prefix:"late" cluster 5);
  Myraft.Cluster.run_for cluster (1.0 *. s);
  Downstream.Cdc.stop cdc;
  Alcotest.(check int) "only the suffix streamed" 10 (Downstream.Cdc.record_count cdc);
  Alcotest.(check bool) "early txns absent" false
    (Binlog.Gtid_set.contains (Downstream.Cdc.seen_gtids cdc)
       (Binlog.Gtid.make ~source:"mysql1" ~gno:3))

let suites =
  [
    ( "sim.trace",
      [
        Alcotest.test_case "records with virtual time" `Quick
          test_trace_records_with_virtual_time;
      ] );
    ( "sim.probe",
      [
        Alcotest.test_case "counts and downtime window" `Quick test_probe_counts_and_downtime;
        Alcotest.test_case "timeout counts failure" `Quick test_probe_timeout_counts_failure;
        Alcotest.test_case "stop mid-probe records nothing" `Quick test_probe_stop_mid_probe;
      ] );
    ( "myraft.discovery",
      [ Alcotest.test_case "publish delay + supersede" `Quick test_discovery_publish_delay ] );
    ( "sim.latency",
      [
        Alcotest.test_case "pair base stable" `Quick test_latency_pair_base_stable;
        Alcotest.test_case "override scopes to pair" `Quick test_latency_override_scopes_to_pair;
      ] );
    ( "raft.message",
      [
        Alcotest.test_case "sizes scale with payload" `Quick test_message_sizes_scale_with_payload;
        Alcotest.test_case "describe mentions key facts" `Quick
          test_message_describe_mentions_key_facts;
      ] );
    ("myraft.roles_classify", [ Alcotest.test_case "table-1 mapping" `Quick test_roles_classify ]);
    ( "downstream.cdc_attach",
      [ Alcotest.test_case "from_index skips history" `Quick test_cdc_from_index_skips_history ] );
  ]
