(* Commit pipeline unit tests: group formation, the consensus-commit
   gate, FIFO completion, abort semantics — plus applier behaviour. *)

let us = Sim.Engine.us
let ms = Sim.Engine.ms

(* A test transaction: the Raft index its flush returns (negative: the
   flush fails) and what its finish does. *)
type item = { index : int; on_finish : ok:bool -> unit }

let create_pipeline ~engine ~is_primary_path =
  Myraft.Pipeline.create ~engine ~params:Myraft.Params.default ~is_primary_path
    ~flush:(fun it -> it.index)
    ~finish:(fun it ~ok -> it.on_finish ~ok)
    ()

let make_pipeline ?(engine = Sim.Engine.create ()) () =
  (engine, create_pipeline ~engine ~is_primary_path:true)

let item ~index ~on_finish = { index; on_finish }

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

(* Abort then reset while a flush cycle is still pending (as
   [Server.install_snapshot] does): the pending cycle's item fails once
   and never commits, and items submitted after the reset flush, commit
   and drain the pipeline. *)
let test_reset_during_pending_flush () =
  let engine, p = make_pipeline () in
  let log = ref [] in
  let submit name index =
    Myraft.Pipeline.submit p
      (item ~index ~on_finish:(fun ~ok -> log := (name, ok) :: !log))
  in
  submit "a" 1;
  Alcotest.(check int) "a flushing" 1 (Myraft.Pipeline.in_flight p);
  ignore (Myraft.Pipeline.abort_all p);
  Myraft.Pipeline.reset p;
  submit "b" 2;
  submit "c" 3;
  Myraft.Pipeline.notify_commit_index p 10;
  Sim.Engine.run_for engine (100.0 *. ms);
  let outcomes name = List.filter_map (fun (n, ok) -> if n = name then Some ok else None) !log in
  Alcotest.(check (list bool)) "a failed once" [ false ] (outcomes "a");
  Alcotest.(check (list bool)) "b committed" [ true ] (outcomes "b");
  Alcotest.(check (list bool)) "c committed" [ true ] (outcomes "c");
  Alcotest.(check int) "nothing in flight" 0 (Myraft.Pipeline.in_flight p)

(* Abort then reset while a commit cycle is still pending (as
   [Server.install_snapshot] may): the cycle already committing keeps
   its group and stays the only one in flight, so an item released
   after the reset waits for it and the engine sees every item in index
   order. *)
let test_reset_during_pending_commit_cycle () =
  let engine, p = make_pipeline () in
  let log = ref [] in
  let submit index =
    Myraft.Pipeline.submit p
      (item ~index ~on_finish:(fun ~ok -> log := (index, ok) :: !log))
  in
  (* a failing flush holds the flusher, so items 1..80 form one group *)
  Myraft.Pipeline.submit p (item ~index:(-1) ~on_finish:(fun ~ok:_ -> ()));
  for i = 1 to 80 do
    submit i
  done;
  Myraft.Pipeline.notify_commit_index p 80;
  (* run until the group has left the queues for its commit cycle *)
  while Myraft.Pipeline.in_flight p > 0 do
    Sim.Engine.run_for engine (10.0 *. us)
  done;
  Alcotest.(check int) "one group of 80" 1 (Myraft.Pipeline.groups_formed p);
  Alcotest.(check (list (pair int bool))) "nothing finished yet" [] !log;
  ignore (Myraft.Pipeline.abort_all p);
  Myraft.Pipeline.reset p;
  submit 81;
  Myraft.Pipeline.notify_commit_index p 81;
  Sim.Engine.run_for engine (100.0 *. ms);
  Alcotest.(check (list (pair int bool))) "all 81 finish in index order"
    (List.init 81 (fun i -> (i + 1, true)))
    (List.rev !log);
  Alcotest.(check int) "nothing in flight" 0 (Myraft.Pipeline.in_flight p)

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
  (* the flush fails, as an append on a deposed leader does *)
  Myraft.Pipeline.submit p (item ~index:(-1) ~on_finish:(fun ~ok -> outcome := Some ok));
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check (option bool)) "flush error fails item" (Some false) !outcome

let test_primary_path_pays_raft_stamp () =
  let engine = Sim.Engine.create () in
  let run ~is_primary_path =
    let p = create_pipeline ~engine ~is_primary_path in
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

(* Steady state: a round submits [m] prebuilt items and commits them.
   The first flushes alone and the rest as one group, so every round
   runs two flush cycles and two commit cycles whatever [m] is.  The
   pipeline keeps its items in reusable columns and each group is a
   range over them, so a round's words are its four stage events (and
   the run's span and horizon), with nothing per item or per group. *)
let pipeline_round_words ~m =
  let engine, p = make_pipeline () in
  let finished = ref 0 in
  let on_finish ~ok = if ok then incr finished in
  (* the warm-up takes every histogram past the minor heap's largest
     block, so their growth in the window is not counted *)
  let rounds = 200 and warmup = 150 in
  let items =
    Array.init ((warmup + rounds) * m) (fun i -> item ~index:(i + 1) ~on_finish)
  in
  let round r =
    for k = 0 to m - 1 do
      Myraft.Pipeline.submit p items.((r * m) + k)
    done;
    Myraft.Pipeline.notify_commit_index p ((r + 1) * m);
    Sim.Engine.run_for engine (2.0 *. ms)
  in
  for r = 0 to warmup - 1 do
    round r
  done;
  let r = ref warmup in
  let words =
    Kit.Alloc.minor_words ~rounds (fun () ->
        round !r;
        incr r)
  in
  Alcotest.(check int) "every item committed" ((warmup + rounds) * m) !finished;
  Alcotest.(check int) "two groups a round" (2 * (warmup + rounds))
    (Myraft.Pipeline.groups_formed p);
  words /. float_of_int rounds

(* A stage event is a [schedule_call]: its 5-word event, the delay
   boxed across the call, and the clock's box when it fires. *)
let stage_event_words = 9

let test_steady_cycle_words () =
  let small = pipeline_round_words ~m:2 and large = pipeline_round_words ~m:66 in
  Alcotest.(check (float 0.))
    (Printf.sprintf "words per item (%.2f and %.2f words per round)" small large)
    0.0
    ((large -. small) /. 64.0);
  (* four stage events, and the run's span and horizon, boxed *)
  let bound = (4 * stage_event_words) + 4 in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per round <= %d" small bound)
    true
    (small <= float_of_int bound)

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
  Myraft.Applier.signal a [| entry 2 (* duplicate *); entry 3 |] ~pos:0 ~len:2;
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
  Myraft.Applier.signal a [| entry 1; entry 2 |] ~pos:0 ~len:2;
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
        Alcotest.test_case "reset during a pending flush" `Quick
          test_reset_during_pending_flush;
        Alcotest.test_case "reset during a pending commit cycle" `Quick
          test_reset_during_pending_commit_cycle;
        Alcotest.test_case "flush error" `Quick test_flush_error_fails_item;
        Alcotest.test_case "truncation re-bounds a spanning group" `Quick
          test_truncation_rebounds_spanning_group;
        Alcotest.test_case "raft stamp accounted" `Quick test_primary_path_pays_raft_stamp;
        Alcotest.test_case "steady cycle allocates only its stage events" `Quick
          test_steady_cycle_words;
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
