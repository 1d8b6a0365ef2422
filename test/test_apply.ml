(* Writeset-based parallel replica apply (MTS):

   - Binlog.Writeset stamping semantics (last writer, floor, bounded
     history reset, clear)
   - the parallel applier scheduler: speedup on independent transactions,
     log-order submission, low-water-mark applied_index over out-of-order
     completions, dependency stalls
   - truncation fencing across lanes (the satellite regression: an
     in-flight entry at/above the truncation point must not re-advance
     applied_index, and its server-side retry loop must see live()=false)
   - row-lock conflict retry against a real engine + pipeline with
     commit-order preservation
   - primary-side dependency stamping end to end through a cluster
   - qcheck: workers ∈ {2,4,8} converge to the same engine content as
     workers=1 under drop/partition/leader-crash chaos. *)

let ms = Helpers.ms
let s = Helpers.s

(* ----- writeset ----- *)

let test_writeset_stamps_last_writer () =
  let ws = Binlog.Writeset.create ~capacity:100 in
  Alcotest.(check int) "fresh key depends on floor" 0
    (Binlog.Writeset.stamp ws ~index:5 ~keys:[ ("t", "a") ]);
  Alcotest.(check int) "same key depends on last writer" 5
    (Binlog.Writeset.stamp ws ~index:9 ~keys:[ ("t", "a") ]);
  Alcotest.(check int) "multi-key takes the max" 9
    (Binlog.Writeset.stamp ws ~index:12 ~keys:[ ("t", "a"); ("t", "zzz") ]);
  Alcotest.(check int) "distinct key still floor" 0
    (Binlog.Writeset.stamp ws ~index:13 ~keys:[ ("t", "b") ]);
  Alcotest.(check int) "same key, different table is distinct" 0
    (Binlog.Writeset.stamp ws ~index:14 ~keys:[ ("u", "a") ])

let test_writeset_never_self_or_future () =
  let ws = Binlog.Writeset.create ~capacity:100 in
  ignore (Binlog.Writeset.stamp ws ~index:3 ~keys:[ ("t", "k") ]);
  (* restamping the same index (e.g. a retried flush) cannot yield
     last_committed >= index *)
  Alcotest.(check int) "self-dependency clamped" 2
    (Binlog.Writeset.stamp ws ~index:3 ~keys:[ ("t", "k") ])

let test_writeset_capacity_reset_raises_floor () =
  let ws = Binlog.Writeset.create ~capacity:4 in
  for i = 1 to 5 do
    ignore (Binlog.Writeset.stamp ws ~index:(10 + i) ~keys:[ ("t", string_of_int i) ])
  done;
  (* 5th distinct key overflowed the history: reset + floor raised *)
  Alcotest.(check int) "history reset" 0 (Binlog.Writeset.size ws);
  Alcotest.(check int) "floor raised to reset index" 15 (Binlog.Writeset.floor ws);
  Alcotest.(check int) "post-reset stamp is conservative" 15
    (Binlog.Writeset.stamp ws ~index:20 ~keys:[ ("t", "fresh") ])

let test_writeset_clear () =
  let ws = Binlog.Writeset.create ~capacity:10 in
  ignore (Binlog.Writeset.stamp ws ~index:7 ~keys:[ ("t", "k") ]);
  Binlog.Writeset.clear ws;
  Alcotest.(check int) "empty" 0 (Binlog.Writeset.size ws);
  Alcotest.(check int) "floor back to zero" 0 (Binlog.Writeset.floor ws);
  Alcotest.(check int) "old writer forgotten" 0
    (Binlog.Writeset.stamp ws ~index:9 ~keys:[ ("t", "k") ])

(* ----- applier scheduler (unit level) ----- *)

let txn_entry ?last_committed ~index ~key () =
  let e =
    Binlog.Entry.make
      ~opid:(Binlog.Opid.make ~term:1 ~index)
      (Binlog.Entry.Transaction
         {
           gtid = Binlog.Gtid.make ~source:"src" ~gno:index;
           events =
             [
               Binlog.Event.make
                 (Binlog.Event.Write_rows
                    { table = "t"; ops = [ Binlog.Event.Insert { key; value = "v" } ] });
             ];
         })
  in
  (match last_committed with
  | Some lc -> Binlog.Entry.set_deps e ~last_committed:lc ~sequence_number:index
  | None -> ());
  e

let params_with_workers workers =
  { Myraft.Params.default with Myraft.Params.applier_workers = workers }

(* Drain [n] independent transactions; returns the virtual time at which
   the last one finished executing (run_for always advances the clock to
   its full duration, so measure inside the process callback). *)
let drain_time ~workers ~n =
  let engine = Sim.Engine.create () in
  let finished_at = ref 0.0 in
  let a =
    Myraft.Applier.create ~engine ~params:(params_with_workers workers) ()
      ~process:(fun _ ~live:_ ~on_submitted ~on_done ->
        finished_at := Sim.Engine.now engine;
        on_done ~ok:true;
        on_submitted ())
  in
  let backlog =
    List.init n (fun i -> txn_entry ~last_committed:0 ~index:(i + 1) ~key:(string_of_int i) ())
  in
  Myraft.Applier.start a ~from_index:1 ~backlog;
  Sim.Engine.run_for engine (1_000.0 *. ms);
  Alcotest.(check int)
    (Printf.sprintf "workers=%d drained" workers)
    n (Myraft.Applier.applied_index a);
  !finished_at

let test_parallel_apply_overlaps_execution () =
  let serial = drain_time ~workers:1 ~n:32 in
  let parallel = drain_time ~workers:4 ~n:32 in
  (* only the 60 us execute phase overlaps, so 4 lanes should come close
     to a 4x drain; require a conservative 2.5x *)
  Alcotest.(check bool)
    (Printf.sprintf "parallel drain >= 2.5x faster (serial %.0fus, parallel %.0fus)" serial
       parallel)
    true
    (parallel *. 2.5 <= serial)

let test_parallel_submission_stays_in_log_order () =
  let engine = Sim.Engine.create () in
  let submitted = ref [] in
  let a =
    Myraft.Applier.create ~engine ~params:(params_with_workers 8) ()
      ~process:(fun e ~live:_ ~on_submitted ~on_done ->
        submitted := Binlog.Entry.index e :: !submitted;
        on_done ~ok:true;
        on_submitted ())
  in
  let backlog =
    List.init 20 (fun i -> txn_entry ~last_committed:0 ~index:(i + 1) ~key:(string_of_int i) ())
  in
  Myraft.Applier.start a ~from_index:1 ~backlog;
  Sim.Engine.run_for engine (100.0 *. ms);
  Alcotest.(check (list int))
    "pipeline submissions in log order despite 8 lanes"
    (List.init 20 (fun i -> i + 1))
    (List.rev !submitted)

let test_applied_index_is_low_water_mark () =
  let engine = Sim.Engine.create () in
  let held = ref None in
  let a =
    Myraft.Applier.create ~engine ~params:(params_with_workers 4) ()
      ~process:(fun e ~live:_ ~on_submitted ~on_done ->
        if Binlog.Entry.index e = 1 then begin
          held := Some on_done;
          on_submitted () (* submitted, but engine commit pending *)
        end
        else begin
          on_done ~ok:true;
          on_submitted ()
        end)
  in
  let backlog =
    List.init 3 (fun i -> txn_entry ~last_committed:0 ~index:(i + 1) ~key:(string_of_int i) ())
  in
  Myraft.Applier.start a ~from_index:1 ~backlog;
  Sim.Engine.run_for engine (100.0 *. ms);
  (* 2 and 3 completed out of order; the mark must hold below the gap *)
  Alcotest.(check int) "gap at 1 pins the mark" 0 (Myraft.Applier.applied_index a);
  (match !held with Some k -> k ~ok:true | None -> Alcotest.fail "entry 1 never processed");
  Alcotest.(check int) "mark jumps over the drained gap" 3 (Myraft.Applier.applied_index a)

let test_dependent_txn_waits_for_mark () =
  let engine = Sim.Engine.create () in
  let processed = ref [] in
  let held = ref None in
  let a =
    Myraft.Applier.create ~engine ~params:(params_with_workers 4) ()
      ~process:(fun e ~live:_ ~on_submitted ~on_done ->
        processed := Binlog.Entry.index e :: !processed;
        if Binlog.Entry.index e = 1 then begin
          held := Some on_done;
          on_submitted ()
        end
        else begin
          on_done ~ok:true;
          on_submitted ()
        end)
  in
  (* 2 conflicts with 1 (last_committed = 1): it may not even start
     executing until 1 is engine-committed *)
  let backlog =
    [ txn_entry ~last_committed:0 ~index:1 ~key:"k" (); txn_entry ~last_committed:1 ~index:2 ~key:"k" () ]
  in
  Myraft.Applier.start a ~from_index:1 ~backlog;
  Sim.Engine.run_for engine (100.0 *. ms);
  Alcotest.(check (list int)) "dependent txn held back" [ 1 ] (List.rev !processed);
  Alcotest.(check bool) "stall counted" true (Myraft.Applier.dep_stalls a >= 1);
  (match !held with Some k -> k ~ok:true | None -> Alcotest.fail "entry 1 never processed");
  Sim.Engine.run_for engine (100.0 *. ms);
  Alcotest.(check (list int)) "released after commit" [ 1; 2 ] (List.rev !processed);
  Alcotest.(check int) "both applied" 2 (Myraft.Applier.applied_index a)

(* ----- truncation fencing (satellite regression) ----- *)

let test_truncation_fences_inflight_entry () =
  let engine = Sim.Engine.create () in
  let held = ref None in
  let a =
    Myraft.Applier.create ~engine ~params:(params_with_workers 4) ()
      ~process:(fun e ~live ~on_submitted ~on_done ->
        if Binlog.Entry.index e = 2 && !held = None then
          (* entry 2 stuck in its prepare retry loop: nothing staged yet *)
          held := Some (live, on_submitted, on_done)
        else begin
          on_done ~ok:true;
          on_submitted ()
        end)
  in
  Myraft.Applier.start a ~from_index:1
    ~backlog:[ txn_entry ~last_committed:0 ~index:1 ~key:"a" (); txn_entry ~last_committed:0 ~index:2 ~key:"b" () ];
  Sim.Engine.run_for engine (100.0 *. ms);
  Alcotest.(check int) "entry 1 applied" 1 (Myraft.Applier.applied_index a);
  let live, on_submitted, on_done =
    match !held with Some x -> x | None -> Alcotest.fail "entry 2 never reached process"
  in
  Alcotest.(check bool) "in-flight entry live before truncation" true (live ());
  (* Raft truncates entry 2 away (leader change rewound the log). *)
  Myraft.Applier.handle_truncation a ~from_index:2;
  Alcotest.(check bool) "retry loop fenced" false (live ());
  (* The regression: the zombie callbacks fire anyway — they must not
     re-advance applied_index past the rewound cursor. *)
  on_done ~ok:true;
  on_submitted ();
  Alcotest.(check int) "zombie completion ignored" 1 (Myraft.Applier.applied_index a);
  (* the replacement entry stream applies normally *)
  Myraft.Applier.signal a
    [ txn_entry ~last_committed:0 ~index:2 ~key:"b2" (); txn_entry ~last_committed:0 ~index:3 ~key:"c" () ];
  Sim.Engine.run_for engine (100.0 *. ms);
  Alcotest.(check int) "replacement stream applied" 3 (Myraft.Applier.applied_index a)

let test_truncation_keeps_submitted_entries_below_point () =
  let engine = Sim.Engine.create () in
  let held = ref [] in
  let a =
    Myraft.Applier.create ~engine ~params:(params_with_workers 4) ()
      ~process:(fun e ~live:_ ~on_submitted ~on_done ->
        (* everything submits instantly but engine commit is pending *)
        held := (Binlog.Entry.index e, on_done) :: !held;
        on_submitted ())
  in
  Myraft.Applier.start a ~from_index:1
    ~backlog:
      [
        txn_entry ~last_committed:0 ~index:1 ~key:"a" ();
        txn_entry ~last_committed:0 ~index:2 ~key:"b" ();
        txn_entry ~last_committed:0 ~index:3 ~key:"c" ();
      ];
  Sim.Engine.run_for engine (100.0 *. ms);
  Alcotest.(check int) "all three in the pipeline" 3 (List.length !held);
  (* truncate 3 away: 1 and 2 are already submitted below the point and
     their commits are real *)
  Myraft.Applier.handle_truncation a ~from_index:3;
  List.iter (fun (_, k) -> k ~ok:true) (List.rev !held);
  Alcotest.(check int) "submitted entries below the point still count" 2
    (Myraft.Applier.applied_index a)

(* ----- row-lock conflict retry against a real engine + pipeline ----- *)

(* A miniature of Server.applier_process: prepare with retry-on-conflict,
   then the replica commit pipeline.  Entry 2 writes the same row as
   entry 1 but carries a permissive interval (a cross-epoch stamp), so it
   executes concurrently and its prepare must spin on the row lock until
   entry 1's engine commit releases it — and commit order must hold. *)
let test_lock_conflict_retries_and_preserves_order () =
  let engine = Sim.Engine.create () in
  let storage = Storage.Engine.create () in
  let params = params_with_workers 4 in
  let pipeline = Myraft.Pipeline.create ~engine ~params ~is_primary_path:false () in
  let conflicts = ref 0 in
  let process entry ~live ~on_submitted ~on_done =
    match Binlog.Entry.payload entry with
    | Binlog.Entry.Transaction { gtid; events } ->
      let writes =
        List.concat_map
          (fun ev ->
            match Binlog.Event.body ev with
            | Binlog.Event.Write_rows { table; ops } ->
              List.map (fun op -> (table, op)) ops
            | _ -> [])
          events
      in
      let rec try_prepare () =
        if not (live ()) then ()
        else
          match Storage.Engine.prepare storage ~gtid ~writes with
          | () ->
            Myraft.Pipeline.submit pipeline
              {
                Myraft.Pipeline.flush = (fun () -> Ok (Binlog.Entry.index entry));
                finish =
                  (fun ~ok ->
                    if ok then begin
                      Storage.Engine.commit_prepared storage ~gtid
                        ~opid:(Binlog.Entry.opid entry);
                      on_done ~ok:true
                    end
                    else on_done ~ok:false);
              };
            on_submitted ()
          | exception Storage.Engine.Lock_conflict _ ->
            incr conflicts;
            ignore (Sim.Engine.schedule engine ~delay:(50.0 *. Sim.Engine.us) try_prepare)
      in
      try_prepare ()
    | _ ->
      on_done ~ok:true;
      on_submitted ()
  in
  let a = Myraft.Applier.create ~engine ~params ~process () in
  Myraft.Applier.start a ~from_index:1
    ~backlog:
      [
        txn_entry ~last_committed:0 ~index:1 ~key:"same-row" ();
        txn_entry ~last_committed:0 ~index:2 ~key:"same-row" ();
      ];
  (* consensus marker withheld: entry 1 sits prepared in the pipeline
     holding the row lock while entry 2 executes and tries to prepare *)
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check bool) "conflict retries happened" true (!conflicts >= 1);
  Alcotest.(check int) "nothing committed yet" 0 (Storage.Engine.committed_count storage);
  Myraft.Pipeline.notify_commit_index pipeline 2;
  Sim.Engine.run_for engine (50.0 *. ms);
  Alcotest.(check int) "both committed" 2 (Storage.Engine.committed_count storage);
  Alcotest.(check int) "applied through both" 2 (Myraft.Applier.applied_index a);
  (* engine commit order matches log order *)
  Alcotest.(check int) "last commit is entry 2" 2
    (Binlog.Opid.index (Storage.Engine.last_committed_opid storage))

(* ----- primary-side stamping, end to end ----- *)

let test_primary_stamps_dependency_intervals () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  Helpers.check_ok "w1" (Helpers.direct_write cluster ~key:"hot" ~value:"a");
  Helpers.check_ok "w2" (Helpers.direct_write cluster ~key:"hot" ~value:"b");
  Helpers.check_ok "w3" (Helpers.direct_write cluster ~key:"cold" ~value:"c");
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  let log = Myraft.Server.log primary in
  let deps_at i =
    match Binlog.Log_store.entry_at log i with
    | Some e -> Binlog.Entry.deps e
    | None -> Alcotest.failf "no entry at %d" i
  in
  (* index 1 is the term-opening noop; writes land at 2, 3, 4 *)
  Alcotest.(check bool) "noop carries no interval" true (deps_at 1 = None);
  (match deps_at 2 with
  | Some d ->
    Alcotest.(check int) "first writer of 'hot' depends on floor" 0
      d.Binlog.Entry.last_committed;
    Alcotest.(check int) "sequence_number is the log index" 2
      d.Binlog.Entry.sequence_number
  | None -> Alcotest.fail "write 1 not stamped");
  (match deps_at 3 with
  | Some d ->
    Alcotest.(check int) "second writer of 'hot' depends on the first" 2
      d.Binlog.Entry.last_committed
  | None -> Alcotest.fail "write 2 not stamped");
  (match deps_at 4 with
  | Some d ->
    Alcotest.(check int) "'cold' is independent" 0 d.Binlog.Entry.last_committed
  | None -> Alcotest.fail "write 3 not stamped");
  (* the stamps replicated through Raft: a replica's relay log agrees *)
  let replica_log = Myraft.Server.log (Option.get (Myraft.Cluster.server cluster "mysql2")) in
  match Binlog.Log_store.entry_at replica_log 3 with
  | Some e ->
    Alcotest.(check bool) "replica sees the interval" true
      (Binlog.Entry.deps e = deps_at 3)
  | None -> Alcotest.fail "replica missing entry 3"

(* ----- qcheck: chaos equivalence across worker counts ----- *)

let spec_with faults =
  match Chaos.Schedule.with_faults Chaos.Schedule.default faults with
  | Ok s -> s
  | Error e -> failwith e

(* One seeded run: a deterministic hot-key workload (value is a function
   of the key, so any commit interleaving converges to the same content)
   under drop/partition/leader-crash chaos; retry each write until it
   commits; heal and settle.  Returns (all_committed, settled,
   per-server content checksums, per-server applied_through =
   commit_index). *)
let run_apply_chaos ~workers ~seed ~writes =
  let params = { Myraft.Params.default with Myraft.Params.applier_workers = workers } in
  let cluster =
    Myraft.Cluster.create ~seed ~params ~replicaset:"apply-chaos"
      ~members:(Chaos.Nemesis.chaos_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"my1";
  let nemesis =
    Chaos.Nemesis.create ~engine:(Myraft.Cluster.engine cluster)
      ~trace:(Myraft.Cluster.trace cluster)
      ~rng:(Sim.Rng.of_int (seed lxor 0x61707079))
      ~spec:(spec_with [ "drop"; "partition"; "leader-crash" ])
      ~ops:(Chaos.Nemesis.ops_of_cluster cluster)
  in
  let write_one i =
    Chaos.Nemesis.step nemesis;
    let key = Printf.sprintf "hot-%d" (i mod 6) in
    let rec go attempts =
      if attempts > 60 then false
      else
        match Helpers.direct_write cluster ~key ~value:("v-" ^ key) with
        | Ok () -> true
        | Error _ ->
          Myraft.Cluster.run_for cluster (200.0 *. ms);
          go (attempts + 1)
    in
    go 0
  in
  let all_committed =
    List.for_all (fun i -> write_one i) (List.init writes (fun i -> i))
  in
  Chaos.Nemesis.heal_now nemesis;
  let mysqls = [ "my1"; "my2"; "my3" ] in
  let settled =
    Myraft.Cluster.run_until cluster ~timeout:(120.0 *. s) (fun () ->
        match Myraft.Cluster.raft_leader cluster with
        | None -> false
        | Some _ -> (
          let indexes =
            List.filter_map
              (fun id ->
                Option.map Raft.Node.commit_index (Myraft.Cluster.raft_of cluster id))
              (Myraft.Cluster.member_ids cluster)
          in
          match indexes with
          | [] -> false
          | ci :: rest ->
            List.for_all (fun x -> x = ci) rest
            && List.for_all
                 (fun id ->
                   match Myraft.Cluster.server cluster id with
                   | Some srv -> Myraft.Server.applied_through srv >= ci
                   | None -> false)
                 mysqls))
  in
  let srv id = Option.get (Myraft.Cluster.server cluster id) in
  let checksums =
    List.map (fun id -> Storage.Engine.checksum (Myraft.Server.storage (srv id))) mysqls
  in
  let applied = List.map (fun id -> Myraft.Server.applied_through (srv id)) mysqls in
  (all_committed, settled, checksums, applied)

let apply_chaos_case_gen =
  QCheck.Gen.(
    let* seed = 1 -- 10_000 in
    let* workers = oneofl [ 2; 4; 8 ] in
    let* writes = 18 -- 30 in
    return (seed, workers, writes))

let apply_chaos_arb =
  QCheck.make
    ~print:(fun (seed, workers, writes) ->
      Printf.sprintf "seed=%d workers=%d writes=%d" seed workers writes)
    apply_chaos_case_gen

(* Equivalence is on engine CONTENT, which the deterministic workload
   makes identical across runs.  applied_through / checksum_at are NOT
   compared across runs: leader crashes land at different instants in
   the two runs, so log indexes (term no-ops, retried writes) and the
   commit history legitimately differ.  Within a run, every server must
   agree on both.

   all_committed is NOT required unconditionally: some chaos schedules
   (e.g. a partition that isolates the routed primary for longer than
   the retry budget) legitimately block a write in BOTH runs — that is
   a property of the schedule, not an apply bug.  The claim is that the
   serial and parallel runs AGREE on whether every write committed, and
   converge to identical content either way; post-heal settling is
   still required unconditionally. *)
let prop_parallel_apply_chaos_equivalence =
  QCheck.Test.make ~name:"parallel apply == serial apply under chaos" ~count:3
    apply_chaos_arb (fun (seed, workers, writes) ->
      let all_p, settled_p, sums_p, applied_p = run_apply_chaos ~workers ~seed ~writes in
      let all_s, settled_s, sums_s, applied_s = run_apply_chaos ~workers:1 ~seed ~writes in
      all_p = all_s && settled_p && settled_s
      (* within-run convergence: every server has identical content and
         has applied through the same point *)
      && List.for_all (fun c -> c = List.hd sums_p) sums_p
      && List.for_all (fun c -> c = List.hd sums_s) sums_s
      && List.for_all (fun x -> x = List.hd applied_p) applied_p
      && List.for_all (fun x -> x = List.hd applied_s) applied_s
      (* cross-run: parallel apply converges to exactly the serial content *)
      && List.hd sums_p = List.hd sums_s)

(* Regression pin for the schedule that exposed the over-strict liveness
   conjunct: seed 9038 blocks one write past the retry budget in both
   runs, while equivalence (agreement + convergence) still holds. *)
let test_blocked_schedule_equivalence () =
  let all_p, settled_p, sums_p, applied_p = run_apply_chaos ~workers:8 ~seed:9038 ~writes:25 in
  let all_s, settled_s, sums_s, applied_s = run_apply_chaos ~workers:1 ~seed:9038 ~writes:25 in
  Alcotest.(check bool) "runs agree on commit outcome" true (all_p = all_s);
  Alcotest.(check bool) "both settle after heal" true (settled_p && settled_s);
  Alcotest.(check bool) "within-run convergence" true
    (List.for_all (fun c -> c = List.hd sums_p) sums_p
    && List.for_all (fun c -> c = List.hd sums_s) sums_s
    && List.for_all (fun x -> x = List.hd applied_p) applied_p
    && List.for_all (fun x -> x = List.hd applied_s) applied_s);
  Alcotest.(check bool) "cross-run content equality" true
    (List.hd sums_p = List.hd sums_s)

let suites =
  [
    ( "apply.blocked-schedule",
      [
        Alcotest.test_case "seed 9038: blocked write, equivalence holds" `Quick
          test_blocked_schedule_equivalence;
      ] );
    ( "apply.writeset",
      [
        Alcotest.test_case "stamps last writer" `Quick test_writeset_stamps_last_writer;
        Alcotest.test_case "never self or future" `Quick test_writeset_never_self_or_future;
        Alcotest.test_case "capacity reset raises floor" `Quick
          test_writeset_capacity_reset_raises_floor;
        Alcotest.test_case "clear forgets history" `Quick test_writeset_clear;
      ] );
    ( "apply.scheduler",
      [
        Alcotest.test_case "parallel lanes overlap execution" `Quick
          test_parallel_apply_overlaps_execution;
        Alcotest.test_case "submission stays in log order" `Quick
          test_parallel_submission_stays_in_log_order;
        Alcotest.test_case "applied_index is a low-water-mark" `Quick
          test_applied_index_is_low_water_mark;
        Alcotest.test_case "dependent txn waits for the mark" `Quick
          test_dependent_txn_waits_for_mark;
        Alcotest.test_case "lock conflict retries, order preserved" `Quick
          test_lock_conflict_retries_and_preserves_order;
      ] );
    ( "apply.truncation",
      [
        Alcotest.test_case "fences in-flight entries (regression)" `Quick
          test_truncation_fences_inflight_entry;
        Alcotest.test_case "keeps submitted entries below the point" `Quick
          test_truncation_keeps_submitted_entries_below_point;
      ] );
    ( "apply.stamping",
      [
        Alcotest.test_case "primary stamps dependency intervals" `Quick
          test_primary_stamps_dependency_intervals;
      ] );
    ( "apply.equivalence",
      [ QCheck_alcotest.to_alcotest prop_parallel_apply_chaos_equivalence ] );
  ]
