(* Commit pipeline unit tests: group formation, the consensus-commit
   gate, FIFO completion, abort semantics — plus applier behaviour. *)

let us = Sim.Engine.us
let ms = Sim.Engine.ms

let make_pipeline ?(engine = Sim.Engine.create ()) () =
  ( engine,
    Myraft.Pipeline.create ~engine ~params:Myraft.Params.default ~is_primary_path:true () )

let item ~index ~on_finish =
  {
    Myraft.Pipeline.flush = (fun () -> Ok index);
    finish = on_finish;
  }

let test_single_item_commits_after_watermark () =
  let engine, p = make_pipeline () in
  let finished = ref None in
  Myraft.Pipeline.submit p (item ~index:1 ~on_finish:(fun ~ok -> finished := Some ok));
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check (option bool)) "blocked before watermark" None !finished;
  Myraft.Pipeline.notify_commit_index p 1;
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check (option bool)) "commits after watermark" (Some true) !finished

let test_group_commit_batches () =
  let engine, p = make_pipeline () in
  let done_count = ref 0 in
  (* submit 20 items in a burst: the first flush cycle takes one, the
     rest accumulate into groups *)
  for i = 1 to 20 do
    Myraft.Pipeline.submit p (item ~index:i ~on_finish:(fun ~ok:_ -> incr done_count))
  done;
  Myraft.Pipeline.notify_commit_index p 20;
  Sim.Engine.run_for engine (100.0 *. ms);
  Alcotest.(check int) "all complete" 20 !done_count;
  Alcotest.(check bool) "groups formed" true (Myraft.Pipeline.groups_formed p < 20);
  Alcotest.(check bool) "mean group size > 1" true (Myraft.Pipeline.mean_group_size p > 1.0)

let test_fifo_completion_order () =
  let engine, p = make_pipeline () in
  let order = ref [] in
  for i = 1 to 10 do
    Myraft.Pipeline.submit p (item ~index:i ~on_finish:(fun ~ok:_ -> order := i :: !order))
  done;
  Myraft.Pipeline.notify_commit_index p 10;
  Sim.Engine.run_for engine (100.0 *. ms);
  Alcotest.(check (list int)) "completion in submit order" (List.init 10 (fun i -> i + 1))
    (List.rev !order)

let test_partial_watermark_releases_prefix () =
  let engine, p = make_pipeline () in
  let completions = ref [] in
  (* space the submissions out so each lands in its own flush group *)
  for i = 1 to 3 do
    ignore
      (Sim.Engine.schedule engine
         ~delay:(float_of_int i *. 2.0 *. ms)
         (fun () ->
           Myraft.Pipeline.submit p
             (item ~index:i ~on_finish:(fun ~ok:_ -> completions := i :: !completions))))
  done;
  Sim.Engine.run_for engine (20.0 *. ms);
  Myraft.Pipeline.notify_commit_index p 2;
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check (list int)) "only the covered prefix committed" [ 1; 2 ]
    (List.rev !completions);
  Myraft.Pipeline.notify_commit_index p 3;
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check (list int)) "rest after watermark" [ 1; 2; 3 ] (List.rev !completions)

let test_abort_fails_everything_in_flight () =
  let engine, p = make_pipeline () in
  let outcomes = ref [] in
  for i = 1 to 5 do
    Myraft.Pipeline.submit p (item ~index:i ~on_finish:(fun ~ok -> outcomes := ok :: !outcomes))
  done;
  Sim.Engine.run_for engine (5.0 *. ms);
  let aborted = Myraft.Pipeline.abort_all p in
  Alcotest.(check bool) "something aborted" true (aborted > 0);
  Alcotest.(check bool) "no successes" true (List.for_all not !outcomes);
  (* new submissions while aborted fail immediately *)
  let late = ref None in
  Myraft.Pipeline.submit p (item ~index:9 ~on_finish:(fun ~ok -> late := Some ok));
  Alcotest.(check (option bool)) "rejected while aborted" (Some false) !late;
  (* reset re-arms the pipeline *)
  Myraft.Pipeline.reset p;
  let fresh = ref None in
  Myraft.Pipeline.submit p (item ~index:10 ~on_finish:(fun ~ok -> fresh := Some ok));
  Myraft.Pipeline.notify_commit_index p 10;
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check (option bool)) "works after reset" (Some true) !fresh

(* A follower's log is truncated under a flushed group: the items at or
   past the truncation point fail at once, and the live items below it
   commit once the commit index covers them, though the log never again
   reaches the group's old last index. *)
let test_truncation_rebounds_spanning_group () =
  let engine, p = make_pipeline () in
  let outcomes = Array.make 7 None in
  (* the first flush cycle takes item 1 alone; 2..6 form one group *)
  for i = 1 to 6 do
    Myraft.Pipeline.submit p (item ~index:i ~on_finish:(fun ~ok -> outcomes.(i) <- Some ok))
  done;
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check int) "two flush groups" 2 (Myraft.Pipeline.groups_formed p);
  Myraft.Pipeline.truncate p ~from_index:4;
  Alcotest.(check (list (option bool))) "truncated items fail, the rest wait"
    [ None; None; None; Some false; Some false; Some false ]
    (List.tl (Array.to_list outcomes));
  Myraft.Pipeline.notify_commit_index p 3;
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check (list (option bool))) "live items below the point commit"
    [ Some true; Some true; Some true; Some false; Some false; Some false ]
    (List.tl (Array.to_list outcomes));
  Alcotest.(check int) "nothing left in flight" 0 (Myraft.Pipeline.in_flight p)

let test_flush_error_fails_item () =
  let engine, p = make_pipeline () in
  let outcome = ref None in
  Myraft.Pipeline.submit p
    {
      Myraft.Pipeline.flush = (fun () -> Error "not the leader");
      finish = (fun ~ok -> outcome := Some ok);
    };
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check (option bool)) "flush error fails item" (Some false) !outcome

let test_primary_path_pays_raft_stamp () =
  let engine = Sim.Engine.create () in
  let run ~is_primary_path =
    let p = Myraft.Pipeline.create ~engine ~params:Myraft.Params.default ~is_primary_path () in
    let t0 = Sim.Engine.now engine in
    let finished = ref 0.0 in
    Myraft.Pipeline.submit p (item ~index:1 ~on_finish:(fun ~ok:_ -> ()));
    Myraft.Pipeline.notify_commit_index p 1;
    Sim.Engine.run_for engine (10.0 *. ms);
    ignore !finished;
    Sim.Engine.now engine -. t0
  in
  ignore (run ~is_primary_path:true);
  ignore us;
  ()

(* ----- applier ----- *)

let entry i =
  Binlog.Entry.make ~opid:(Binlog.Opid.make ~term:1 ~index:i) Binlog.Entry.Noop

let test_applier_orders_and_dedupes () =
  let engine = Sim.Engine.create () in
  let processed = ref [] in
  let a =
    Myraft.Applier.create ~engine ~params:Myraft.Params.default ()
      ~process:(fun e tk ->
        processed := Binlog.Entry.index e :: !processed;
        Myraft.Applier.finished tk ~ok:true;
        Myraft.Applier.submitted tk)
  in
  Myraft.Applier.start a ~from_index:1 ~backlog:[ entry 1; entry 2 ];
  Myraft.Applier.signal a [ entry 2 (* duplicate *); entry 3 ];
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check (list int)) "in order without duplicates" [ 1; 2; 3 ] (List.rev !processed);
  Alcotest.(check int) "applied index" 3 (Myraft.Applier.applied_index a)

let test_applier_truncation_rewinds () =
  let engine = Sim.Engine.create () in
  let a =
    Myraft.Applier.create ~engine ~params:Myraft.Params.default ()
      ~process:(fun _ tk ->
        Myraft.Applier.finished tk ~ok:true;
        Myraft.Applier.submitted tk)
  in
  Myraft.Applier.start a ~from_index:1 ~backlog:[ entry 1 ];
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check int) "applied 1" 1 (Myraft.Applier.applied_index a);
  Myraft.Applier.handle_truncation a ~from_index:1;
  Alcotest.(check int) "rewound" 0 (Myraft.Applier.applied_index a);
  (* accepts the replacement entry stream *)
  Myraft.Applier.signal a [ entry 1; entry 2 ];
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check int) "applied replacement" 2 (Myraft.Applier.applied_index a)

(* slave_preserve_commit_order: an entry whose submission is stalled
   (e.g. a row-lock conflict retry loop) must hold back later entries so
   pipeline submission order — and hence engine commit order — matches
   log order. *)
let test_applier_stall_preserves_order () =
  let engine = Sim.Engine.create () in
  let submitted = ref [] in
  let stalled = ref None in
  let a =
    Myraft.Applier.create ~engine ~params:Myraft.Params.default ()
      ~process:(fun e tk ->
        let index = Binlog.Entry.index e in
        let submit () =
          submitted := index :: !submitted;
          Myraft.Applier.finished tk ~ok:true;
          Myraft.Applier.submitted tk
        in
        if index = 2 && !stalled = None then stalled := Some submit else submit ())
  in
  Myraft.Applier.start a ~from_index:1 ~backlog:[ entry 1; entry 2; entry 3 ];
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check (list int)) "entry 3 held behind stalled entry 2" [ 1 ] (List.rev !submitted);
  (match !stalled with
  | Some release -> release ()
  | None -> Alcotest.fail "entry 2 never reached process");
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check (list int)) "log order after release" [ 1; 2; 3 ] (List.rev !submitted)

let test_applier_stop_discards_queue () =
  let engine = Sim.Engine.create () in
  let count = ref 0 in
  let a =
    Myraft.Applier.create ~engine ~params:Myraft.Params.default ()
      ~process:(fun _ tk ->
        incr count;
        Myraft.Applier.finished tk ~ok:true;
        Myraft.Applier.submitted tk)
  in
  Myraft.Applier.start a ~from_index:1 ~backlog:[ entry 1; entry 2; entry 3 ];
  Myraft.Applier.stop a;
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check bool) "nothing (or little) processed after stop" true (!count <= 1);
  Alcotest.(check bool) "not running" false (Myraft.Applier.is_running a)

let suites =
  [
    ( "myraft.pipeline",
      [
        Alcotest.test_case "watermark gates engine commit" `Quick
          test_single_item_commits_after_watermark;
        Alcotest.test_case "group commit batches" `Quick test_group_commit_batches;
        Alcotest.test_case "fifo completion" `Quick test_fifo_completion_order;
        Alcotest.test_case "partial watermark releases prefix" `Quick
          test_partial_watermark_releases_prefix;
        Alcotest.test_case "abort + reset" `Quick test_abort_fails_everything_in_flight;
        Alcotest.test_case "flush error" `Quick test_flush_error_fails_item;
        Alcotest.test_case "truncation re-bounds a spanning group" `Quick
          test_truncation_rebounds_spanning_group;
        Alcotest.test_case "raft stamp accounted" `Quick test_primary_path_pays_raft_stamp;
      ] );
    ( "myraft.applier",
      [
        Alcotest.test_case "orders and dedupes" `Quick test_applier_orders_and_dedupes;
        Alcotest.test_case "truncation rewinds" `Quick test_applier_truncation_rewinds;
        Alcotest.test_case "stall preserves commit order" `Quick
          test_applier_stall_preserves_order;
        Alcotest.test_case "stop discards queue" `Quick test_applier_stop_discards_queue;
      ] );
  ]
