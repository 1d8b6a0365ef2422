(* Randomized Raft safety checks: run a ring of bare Raft nodes under a
   Chaos.Nemesis fault schedule (crashes, partitions, isolation, message
   drop/duplication/reordering, torn tails) while Chaos.Invariants
   continuously asserts the safety properties the paper relies on
   (§4.1): election safety, commit safety / log matching on committed
   prefixes, leader completeness, and post-heal convergence.

   Runs in both classic-majority and FlexiRaft single-region-dynamic
   modes over several seeds.  The full-cluster (MySQL + engine) chaos
   tests live in test_chaos.ml; this file exercises the same nemesis and
   checker against the protocol layer alone. *)

let ms = Sim.Engine.ms
let s = Sim.Engine.s

type world = { h : Test_raft.harness; mutable gno : int }

let node_ids w = w.h.Test_raft.order

let up w id = (Test_raft.get w.h id).Test_raft.up

(* Control surface: the same nemesis that drives a full MyRaft cluster,
   wired to the bare harness. *)
let ops_of_harness w =
  {
    Chaos.Nemesis.node_ids = node_ids w;
    region_of = (fun id -> (Test_raft.get w.h id).Test_raft.node_region);
    is_up = up w;
    leader = (fun () -> match Test_raft.leaders w.h with [ l ] -> Some l | _ -> None);
    crash = Test_raft.crash w.h;
    restart = Test_raft.restart w.h;
    isolate = Sim.Network.isolate_node w.h.Test_raft.net;
    heal_node = Sim.Network.heal_node w.h.Test_raft.net;
    cut_regions = Sim.Network.cut_regions w.h.Test_raft.net;
    heal_regions = Sim.Network.heal_regions w.h.Test_raft.net;
    set_node_faults = Sim.Network.set_node_faults w.h.Test_raft.net;
    clear_node_faults = Sim.Network.clear_node_faults w.h.Test_raft.net;
    heal_all_network = (fun () -> Sim.Network.heal_all w.h.Test_raft.net);
    store_of = (fun id -> Some (Test_raft.get w.h id).Test_raft.store);
    transfer = (fun ~target:_ -> Error "no orchestration in the bare harness");
    clock_of =
      (fun id ->
        let n = Test_raft.get w.h id in
        if n.Test_raft.up then Some (Raft.Node.clock (Test_raft.raft n)) else None);
    set_link_faults =
      (fun ~src ~dst spec -> Sim.Network.set_link_faults w.h.Test_raft.net ~src ~dst spec);
    clear_link_faults =
      (fun ~src ~dst -> Sim.Network.clear_link_faults w.h.Test_raft.net ~src ~dst);
    force_election =
      (fun id ->
        let n = Test_raft.get w.h id in
        if n.Test_raft.up then Raft.Node.trigger_election (Test_raft.raft n));
  }

(* No storage engine behind bare Raft nodes: engine invariants are
   skipped, log/election/commit safety still apply. *)
let probes_of_harness w =
  List.map
    (fun id ->
      let n = Test_raft.get w.h id in
      {
        Chaos.Invariants.probe_id = id;
        probe_up = (fun () -> n.Test_raft.up);
        probe_raft = (fun () -> if n.Test_raft.up then Some (Test_raft.raft n) else None);
        probe_store = (fun () -> Some n.Test_raft.store);
        probe_engine = (fun () -> None);
      })
    (node_ids w)

let try_append w =
  match Test_raft.leaders w.h with
  | [ leader ] ->
    w.gno <- w.gno + 1;
    ignore
      (Raft.Node.client_append
         (Test_raft.raft (Test_raft.get w.h leader))
         (Binlog.Entry.Transaction
            {
              gtid = Binlog.Gtid.make ~source:"chaos" ~gno:w.gno;
              table = "t";
              ops =
                [ Binlog.Event.Insert { key = Printf.sprintf "k%d" w.gno; value = "v" } ];
              xid = 0;
            }))
  | _ -> ()

let run_chaos ~seed ~params ~members ~steps =
  let h = Test_raft.make_harness ~seed ~params members in
  let w = { h; gno = 0 } in
  let inv =
    Chaos.Invariants.create
      ~now:(fun () -> Sim.Engine.now h.Test_raft.engine)
      ~probes:(probes_of_harness w)
      ()
  in
  let nemesis =
    Chaos.Nemesis.create ~engine:h.Test_raft.engine ~trace:h.Test_raft.trace
      ~rng:(Sim.Rng.of_int (seed * 7919))
      ~spec:Chaos.Schedule.default ~ops:(ops_of_harness w)
  in
  (* give the ring time to elect before the abuse starts *)
  Sim.Engine.run_for h.Test_raft.engine (5.0 *. s);
  for _ = 1 to steps do
    Chaos.Nemesis.step nemesis;
    try_append w;
    Sim.Engine.run_for h.Test_raft.engine (250.0 *. ms);
    Chaos.Invariants.check inv
  done;
  (* heal everything and verify convergence *)
  Chaos.Nemesis.heal_now nemesis;
  let converged () =
    match Test_raft.leaders w.h with
    | [ leader ] ->
      let target = Binlog.Log_store.last_opid (Test_raft.get w.h leader).Test_raft.store in
      Binlog.Opid.index target > 0
      && List.for_all
           (fun id ->
             Binlog.Opid.equal
               (Binlog.Log_store.last_opid (Test_raft.get w.h id).Test_raft.store)
               target)
           (node_ids w)
    | _ -> false
  in
  let ok = Test_raft.run_until w.h ~timeout:(60.0 *. s) converged in
  Alcotest.(check bool) "logs converge after healing" true ok;
  Chaos.Invariants.check inv;
  Chaos.Invariants.check_converged inv;
  (match Chaos.Invariants.violations inv with
  | [] -> ()
  | vs ->
    Alcotest.failf "seed %d: %d invariant violations, first: %s" seed (List.length vs)
      (Chaos.Invariants.violation_to_string (List.hd vs)));
  Chaos.Invariants.committed_entries inv

let majority_members () =
  [
    ("n1", "r1", true, Raft.Types.Mysql_server);
    ("n2", "r1", true, Raft.Types.Mysql_server);
    ("n3", "r1", true, Raft.Types.Mysql_server);
    ("n4", "r1", true, Raft.Types.Mysql_server);
    ("n5", "r1", true, Raft.Types.Mysql_server);
  ]

let flexi_members () =
  [
    ("a1", "r1", true, Raft.Types.Mysql_server);
    ("a2", "r1", true, Raft.Types.Logtailer);
    ("a3", "r1", true, Raft.Types.Logtailer);
    ("b1", "r2", true, Raft.Types.Mysql_server);
    ("b2", "r2", true, Raft.Types.Logtailer);
    ("b3", "r2", true, Raft.Types.Logtailer);
  ]

let test_chaos_majority () =
  List.iter
    (fun seed ->
      let committed =
        run_chaos ~seed ~params:Test_raft.majority_params ~members:(majority_members ())
          ~steps:120
      in
      if committed < 10 then Alcotest.failf "too little progress (seed %d)" seed)
    [ 1; 2; 3 ]

let test_chaos_flexiraft () =
  List.iter
    (fun seed ->
      let committed =
        run_chaos ~seed ~params:Test_raft.flexi_params ~members:(flexi_members ())
          ~steps:120
      in
      if committed < 10 then Alcotest.failf "too little progress (seed %d)" seed)
    [ 4; 5; 6 ]

let test_chaos_with_proxying () =
  let params = { Test_raft.flexi_params with Raft.Node.proxying = true } in
  let committed = run_chaos ~seed:9 ~params ~members:(flexi_members ()) ~steps:120 in
  if committed < 10 then Alcotest.fail "too little progress with proxying"

let suites =
  [
    ( "raft.safety",
      [
        Alcotest.test_case "chaos: classic majority" `Slow test_chaos_majority;
        Alcotest.test_case "chaos: flexiraft SRD" `Slow test_chaos_flexiraft;
        Alcotest.test_case "chaos: flexiraft + proxying" `Slow test_chaos_with_proxying;
      ] );
  ]
