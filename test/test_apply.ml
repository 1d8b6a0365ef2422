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
   - qcheck: the applier's lane and Submitting counters stay exact under
     retries, replays, held commits, truncations and restarts
   - a seeded §6.1 cluster run twice in one process ends identical
   - qcheck: workers ∈ {2,4,8} converge to the same engine content as
     workers=1 under drop/partition/leader-crash chaos. *)

let ms = Helpers.ms
let s = Helpers.s

(* ----- writeset ----- *)

let inserts keys = List.map (fun key -> Binlog.Event.Insert { key; value = "v" }) keys

let test_writeset_stamps_last_writer () =
  let ws = Binlog.Writeset.create ~capacity:100 in
  Alcotest.(check int) "fresh key depends on floor" 0
    (Binlog.Writeset.stamp ws ~index:5 ~table:"t" ~ops:(inserts [ "a" ]));
  Alcotest.(check int) "same key depends on last writer" 5
    (Binlog.Writeset.stamp ws ~index:9 ~table:"t" ~ops:(inserts [ "a" ]));
  Alcotest.(check int) "multi-key takes the max" 9
    (Binlog.Writeset.stamp ws ~index:12 ~table:"t" ~ops:(inserts [ "a"; "zzz" ]));
  Alcotest.(check int) "distinct key still floor" 0
    (Binlog.Writeset.stamp ws ~index:13 ~table:"t" ~ops:(inserts [ "b" ]));
  Alcotest.(check int) "same key, different table is distinct" 0
    (Binlog.Writeset.stamp ws ~index:14 ~table:"u" ~ops:(inserts [ "a" ]))

let test_writeset_never_self_or_future () =
  let ws = Binlog.Writeset.create ~capacity:100 in
  ignore (Binlog.Writeset.stamp ws ~index:3 ~table:"t" ~ops:(inserts [ "k" ]));
  (* restamping the same index (e.g. a retried flush) cannot yield
     last_committed >= index *)
  Alcotest.(check int) "self-dependency clamped" 2
    (Binlog.Writeset.stamp ws ~index:3 ~table:"t" ~ops:(inserts [ "k" ]))

let test_writeset_capacity_reset_raises_floor () =
  let ws = Binlog.Writeset.create ~capacity:4 in
  for i = 1 to 5 do
    ignore
      (Binlog.Writeset.stamp ws ~index:(10 + i) ~table:"t" ~ops:(inserts [ string_of_int i ]))
  done;
  (* 5th distinct key overflowed the history: reset + floor raised *)
  Alcotest.(check int) "history reset" 0 (Binlog.Writeset.size ws);
  Alcotest.(check int) "floor raised to reset index" 15 (Binlog.Writeset.floor ws);
  Alcotest.(check int) "post-reset stamp is conservative" 15
    (Binlog.Writeset.stamp ws ~index:20 ~table:"t" ~ops:(inserts [ "fresh" ]))

let test_writeset_clear () =
  let ws = Binlog.Writeset.create ~capacity:10 in
  ignore (Binlog.Writeset.stamp ws ~index:7 ~table:"t" ~ops:(inserts [ "k" ]));
  Binlog.Writeset.clear ws;
  Alcotest.(check int) "empty" 0 (Binlog.Writeset.size ws);
  Alcotest.(check int) "floor back to zero" 0 (Binlog.Writeset.floor ws);
  Alcotest.(check int) "old writer forgotten" 0
    (Binlog.Writeset.stamp ws ~index:9 ~table:"t" ~ops:(inserts [ "k" ]))

(* The stamp rule as a list-based model: the history is an association
   list from a (table, key) hash to its last writer, emptied with the
   floor raised once it holds more than [capacity] hashes. *)
let model_stamp ~capacity (history, floor) ~index ~table ~keys =
  let hashes = List.map (fun key -> Hashtbl.hash (table, key)) keys in
  let last =
    List.fold_left
      (fun acc h -> match List.assoc_opt h history with Some i -> max acc i | None -> acc)
      floor hashes
  in
  let history =
    List.fold_left (fun hist h -> (h, index) :: List.remove_assoc h hist) history hashes
  in
  let state = if List.length history > capacity then ([], index) else (history, floor) in
  (min last (index - 1), state)

(* Stamps of multi-key transactions over two tables, across several
   history overflows, match the model's one for one: emptying the
   history in place forgets exactly what a fresh table would. *)
let test_writeset_overflows_match_model () =
  let capacity = 40 in
  let ws = Binlog.Writeset.create ~capacity in
  let rng = Random.State.make [| 31 |] in
  let model = ref ([], 0) and overflows = ref 0 in
  for index = 1 to 600 do
    let table = if Random.State.bool rng then "t" else "u" in
    let keys =
      List.init (1 + Random.State.int rng 3) (fun _ ->
          Printf.sprintf "row-%d" (Random.State.int rng 120))
    in
    let want, state = model_stamp ~capacity !model ~index ~table ~keys in
    if snd state <> snd !model then incr overflows;
    model := state;
    let got = Binlog.Writeset.stamp ws ~index ~table ~ops:(inserts keys) in
    if got <> want then Alcotest.failf "stamp %d: got %d, model %d" index got want;
    Alcotest.(check int) (Printf.sprintf "floor after %d" index) (snd state)
      (Binlog.Writeset.floor ws)
  done;
  Alcotest.(check bool) (Printf.sprintf "%d overflows >= 2" !overflows) true (!overflows >= 2)

(* ----- applier scheduler (unit level) ----- *)

let txn_entry ?last_committed ~index ~key () =
  let e =
    Binlog.Entry.make
      ~opid:(Binlog.Opid.make ~term:1 ~index)
      (Binlog.Entry.Transaction
         {
           gtid = Binlog.Gtid.make ~source:"src" ~gno:index;
           table = "t";
           ops = [ Binlog.Event.Insert { key; value = "v" } ];
           xid = 0;
         })
  in
  (match last_committed with
  | Some lc -> Binlog.Entry.set_deps e ~last_committed:lc
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
      ~process:(fun _ tk ->
        finished_at := Sim.Engine.now engine;
        Myraft.Applier.finished tk ~ok:true;
        Myraft.Applier.submitted tk)
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
      ~process:(fun e tk ->
        submitted := Binlog.Entry.index e :: !submitted;
        Myraft.Applier.finished tk ~ok:true;
        Myraft.Applier.submitted tk)
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
      ~process:(fun e tk ->
        if Binlog.Entry.index e = 1 then begin
          held := Some tk;
          Myraft.Applier.submitted tk (* submitted, but engine commit pending *)
        end
        else begin
          Myraft.Applier.finished tk ~ok:true;
          Myraft.Applier.submitted tk
        end)
  in
  let backlog =
    List.init 3 (fun i -> txn_entry ~last_committed:0 ~index:(i + 1) ~key:(string_of_int i) ())
  in
  Myraft.Applier.start a ~from_index:1 ~backlog;
  Sim.Engine.run_for engine (100.0 *. ms);
  (* 2 and 3 completed out of order; the mark must hold below the gap *)
  Alcotest.(check int) "gap at 1 pins the mark" 0 (Myraft.Applier.applied_index a);
  (match !held with
  | Some tk -> Myraft.Applier.finished tk ~ok:true
  | None -> Alcotest.fail "entry 1 never processed");
  Alcotest.(check int) "mark jumps over the drained gap" 3 (Myraft.Applier.applied_index a)

let test_dependent_txn_waits_for_mark () =
  let engine = Sim.Engine.create () in
  let processed = ref [] in
  let held = ref None in
  let a =
    Myraft.Applier.create ~engine ~params:(params_with_workers 4) ()
      ~process:(fun e tk ->
        processed := Binlog.Entry.index e :: !processed;
        if Binlog.Entry.index e = 1 then begin
          held := Some tk;
          Myraft.Applier.submitted tk
        end
        else begin
          Myraft.Applier.finished tk ~ok:true;
          Myraft.Applier.submitted tk
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
  (match !held with
  | Some tk -> Myraft.Applier.finished tk ~ok:true
  | None -> Alcotest.fail "entry 1 never processed");
  Sim.Engine.run_for engine (100.0 *. ms);
  Alcotest.(check (list int)) "released after commit" [ 1; 2 ] (List.rev !processed);
  Alcotest.(check int) "both applied" 2 (Myraft.Applier.applied_index a)

(* The lag gauge follows every rewind of applied_index, not only
   commits: start and truncation move the mark down. *)
let test_lag_gauge_tracks_rewinds () =
  let engine = Sim.Engine.create () in
  let metrics = Obs.Metrics.create () in
  let a =
    Myraft.Applier.create ~metrics ~engine ~params:(params_with_workers 4) ()
      ~process:(fun _ tk ->
        Myraft.Applier.finished tk ~ok:true;
        Myraft.Applier.submitted tk)
  in
  let lag () = Obs.Metrics.gauge_value (Obs.Metrics.gauge metrics "applier.lag") in
  let backlog =
    List.init 6 (fun i -> txn_entry ~last_committed:0 ~index:(i + 1) ~key:(string_of_int i) ())
  in
  Myraft.Applier.start a ~from_index:1 ~backlog;
  Myraft.Applier.note_commit_index a 10;
  Sim.Engine.run_for engine (10.0 *. ms);
  Alcotest.(check int) "applied 6" 6 (Myraft.Applier.applied_index a);
  Alcotest.(check (float 0.0)) "lag after commits" 4.0 (lag ());
  Myraft.Applier.handle_truncation a ~from_index:4;
  Alcotest.(check (float 0.0)) "lag after truncation" 7.0 (lag ());
  Myraft.Applier.stop a;
  Myraft.Applier.start a ~from_index:2 ~backlog:[];
  Alcotest.(check (float 0.0)) "lag after restart" 9.0 (lag ())

(* ----- qcheck: lane and Submitting-window bookkeeping ----- *)

(* A stub [process] over a model engine and FIFO pipeline, drawing at
   random: row-lock retries, idempotent replays (finished before
   submitted), and engine commits held back for a while; the driver
   interleaves relay-log signals, truncations and stop/start.  The stub
   checks on every call that the lanes held stay within [workers] and
   that at most one live entry sits in the Submitting window; at
   quiescence nothing holds a lane, the mark is at the last index, and
   the model engine committed each final-log entry once, in log
   order.  The ring is fenced too: after every step and on every call
   it holds no index outside [applied_index+1, next_expected), every
   entry reaching [process] is live and the current log's, and once
   the log holds a truncated index again, a late [submitted] or
   [finished] on a ticket the truncation fenced changes nothing (its
   late execute event fires on its own, and must not make any ticket
   reach [process] twice).
   These checks draw no random numbers, so the schedule of every case is
   what it was without them. *)
let run_bookkeeping ~seed ~workers ~steps =
  let rng = Random.State.make [| seed |] in
  let coin p = Random.State.float rng 1.0 < p in
  let engine = Sim.Engine.create () in
  let log = Hashtbl.create 64 (* index -> entry of the current stream *) in
  let last = ref 0 (* last index in the relay log *) in
  let signaled = ref 0 in
  let gen = ref 0 in
  let committed = Hashtbl.create 64 (* index -> entry, model engine *) in
  let commit_log = ref [] in
  let fifo = Queue.create () (* submitted (ticket, entry), awaiting commit *) in
  let hold = ref false in
  let armed = ref false in
  let errors = ref [] in
  let error fmt = Printf.ksprintf (fun m -> errors := m :: !errors) fmt in
  let submitting = ref [] (* tickets handed out, not yet reported submitted *) in
  let applier = ref None in
  let a () = Option.get !applier in
  let check_ring where =
    let lo = Myraft.Applier.applied_index (a ()) + 1
    and hi = Myraft.Applier.next_expected (a ()) in
    List.iter
      (fun i ->
        if i < lo || i >= hi then error "%s: ring holds %d outside [%d, %d)" where i lo hi)
      (Myraft.Applier.ring_indexes (a ()))
  in
  let check_lanes where =
    let busy = Myraft.Applier.busy_workers (a ()) and lanes = Myraft.Applier.workers (a ()) in
    if busy > lanes then error "%s: %d lanes held, %d workers" where busy lanes;
    let open_ = List.filter Myraft.Applier.live !submitting in
    if List.length open_ > 1 then
      error "%s: %d live entries submitting" where (List.length open_);
    check_ring where
  in
  (* Every ticket handed to [process], and those a truncation fenced:
     after every step, each fenced ticket whose index the relay log
     holds again is called late. *)
  let handed = ref [] and fenced = ref [] in
  let fingerprint () =
    let a = a () in
    ( Myraft.Applier.applied_index a,
      Myraft.Applier.applied_txns a,
      Myraft.Applier.busy_workers a,
      Myraft.Applier.dep_stalls a,
      Myraft.Applier.next_expected a,
      Myraft.Applier.ring_indexes a )
  in
  let call_fenced_late () =
    let before = fingerprint () in
    List.iter
      (fun tk ->
        if Binlog.Entry.index (Myraft.Applier.entry tk) <= !signaled then begin
          Myraft.Applier.submitted tk;
          Myraft.Applier.finished tk ~ok:true;
          Myraft.Applier.submitted tk
        end)
      !fenced;
    if fingerprint () <> before then
      error "a fenced ticket's late call changed the applier"
  in
  let report_submitted tk =
    submitting := List.filter (fun x -> x != tk) !submitting;
    Myraft.Applier.submitted tk
  in
  let rec commit_head () =
    if !hold || Queue.is_empty fifo then armed := false
    else begin
      let tk, e = Queue.pop fifo in
      if Myraft.Applier.live tk then begin
        let i = Binlog.Entry.index e in
        if Hashtbl.mem committed i then error "index %d committed twice" i;
        Hashtbl.replace committed i e;
        commit_log := e :: !commit_log;
        Myraft.Applier.finished tk ~ok:true
      end
      else Myraft.Applier.finished tk ~ok:false;
      ignore (Sim.Engine.schedule engine ~delay:(float_of_int (Random.State.int rng 40)) commit_head)
    end
  in
  let kick () =
    if not !armed then begin
      armed := true;
      ignore (Sim.Engine.schedule engine ~delay:5.0 commit_head)
    end
  in
  let rec attempt e tk retries =
    if Myraft.Applier.live tk then begin
      check_lanes "retry";
      if retries > 0 then
        ignore
          (Sim.Engine.schedule engine ~delay:50.0 (fun () -> attempt e tk (retries - 1)))
      else begin
        Queue.push (tk, e) fifo;
        kick ();
        report_submitted tk
      end
    end
  in
  let process e tk =
    submitting := tk :: !submitting;
    if List.memq tk !handed then error "a ticket reached process twice";
    handed := tk :: !handed;
    check_lanes "process";
    if not (Myraft.Applier.live tk) then error "process got a fenced ticket";
    (match Hashtbl.find_opt log (Binlog.Entry.index e) with
    | Some current when current == e -> ()
    | _ -> error "process got index %d of a truncated log" (Binlog.Entry.index e));
    if Myraft.Applier.busy_workers (a ()) < 1 then error "processing entry holds no lane";
    match Hashtbl.find_opt committed (Binlog.Entry.index e) with
    | Some c ->
      if c != e then error "replayed index %d is a different entry" (Binlog.Entry.index e);
      Myraft.Applier.finished tk ~ok:true;
      report_submitted tk
    | None -> attempt e tk (if coin 0.2 then 1 + Random.State.int rng 3 else 0)
  in
  applier := Some (Myraft.Applier.create ~engine ~params:(params_with_workers workers) ~process ());
  let applied () = Myraft.Applier.applied_index (a ()) in
  let append () =
    incr last;
    let i = !last in
    let e =
      match Random.State.int rng 6 with
      | 0 -> Binlog.Entry.make ~opid:(Binlog.Opid.make ~term:1 ~index:i) Binlog.Entry.Noop
      | 1 -> txn_entry ~index:i ~key:(Printf.sprintf "g%d-%d" !gen i) () (* barrier *)
      | _ ->
        let last_committed = max 0 (i - 1 - Random.State.int rng 4) in
        txn_entry ~last_committed ~index:i ~key:(Printf.sprintf "g%d-%d" !gen i) ()
    in
    Hashtbl.replace log i e
  in
  let entries_from i = List.init (max 0 (!signaled - i + 1)) (fun k -> Hashtbl.find log (i + k)) in
  let signal_range entries =
    let entries = Array.of_list entries in
    Myraft.Applier.signal (a ()) entries ~pos:0 ~len:(Array.length entries)
  in
  let signal_new () =
    let from = !signaled + 1 in
    while !signaled < !last do
      incr signaled
    done;
    signal_range (entries_from from)
  in
  let running = ref true in
  Myraft.Applier.start (a ()) ~from_index:1 ~backlog:[];
  for _ = 1 to steps do
    (match Random.State.int rng 10 with
    | 0 | 1 | 2 ->
      for _ = 0 to Random.State.int rng 4 do
        append ()
      done;
      if !running then signal_new ()
    | 3 | 4 | 5 -> ()
    | 6 ->
      hold := not !hold;
      if not !hold then kick ()
    | 7 ->
      (* Raft rewinds the uncommitted tail to a point above the mark. *)
      let lo = Hashtbl.length committed + 1 in
      if !last >= lo then begin
        let p = lo + Random.State.int rng (!last - lo + 1) in
        incr gen;
        for i = p to !last do
          Hashtbl.remove log i
        done;
        last := p - 1;
        signaled := min !signaled (p - 1);
        let was_live = List.filter Myraft.Applier.live !handed in
        Myraft.Applier.handle_truncation (a ()) ~from_index:p;
        fenced := List.filter (fun tk -> not (Myraft.Applier.live tk)) was_live @ !fenced
      end
    | 8 when !running ->
      Myraft.Applier.stop (a ());
      running := false
    | _ ->
      if not !running then begin
        (* Restart at or a little below the mark: the overlap replays. *)
        let from_index = max 1 (applied () + 1 - Random.State.int rng 3) in
        signaled := !last;
        Myraft.Applier.start (a ()) ~from_index ~backlog:(entries_from from_index);
        running := true
      end);
    Sim.Engine.run_for engine (float_of_int (Random.State.int rng 300));
    check_ring "step";
    call_fenced_late ()
  done;
  if not !running then begin
    let from_index = applied () + 1 in
    signaled := !last;
    Myraft.Applier.start (a ()) ~from_index ~backlog:(entries_from from_index)
  end
  else signal_new ();
  hold := false;
  kick ();
  Sim.Engine.run_for engine (1_000.0 *. ms);
  let expected = List.init !last (fun k -> Hashtbl.find log (k + 1)) in
  if Myraft.Applier.busy_workers (a ()) <> 0 then
    error "quiescent but %d lanes held" (Myraft.Applier.busy_workers (a ()));
  if applied () <> !last then error "applied_index %d, last index %d" (applied ()) !last;
  let commits = List.rev !commit_log in
  if List.length commits <> List.length expected || not (List.for_all2 ( == ) commits expected)
  then
    error "commits [%s] are not the log in order"
      (String.concat ";" (List.map (fun e -> string_of_int (Binlog.Entry.index e)) commits));
  List.rev !errors

let prop_lane_bookkeeping =
  QCheck.Test.make ~name:"lane counters stay exact" ~count:300
    QCheck.(triple (int_range 1 1_000_000) (int_range 1 4) (int_range 10 80))
    (fun (seed, workers, steps) ->
      match run_bookkeeping ~seed ~workers ~steps with
      | [] -> true
      | errs -> QCheck.Test.fail_report (String.concat "\n" errs))

(* ----- truncation fencing (satellite regression) ----- *)

let test_truncation_fences_inflight_entry () =
  let engine = Sim.Engine.create () in
  let held = ref None in
  let a =
    Myraft.Applier.create ~engine ~params:(params_with_workers 4) ()
      ~process:(fun e tk ->
        if Binlog.Entry.index e = 2 && !held = None then
          (* entry 2 stuck in its prepare retry loop: nothing staged yet *)
          held := Some tk
        else begin
          Myraft.Applier.finished tk ~ok:true;
          Myraft.Applier.submitted tk
        end)
  in
  Myraft.Applier.start a ~from_index:1
    ~backlog:[ txn_entry ~last_committed:0 ~index:1 ~key:"a" (); txn_entry ~last_committed:0 ~index:2 ~key:"b" () ];
  Sim.Engine.run_for engine (100.0 *. ms);
  Alcotest.(check int) "entry 1 applied" 1 (Myraft.Applier.applied_index a);
  let tk =
    match !held with Some x -> x | None -> Alcotest.fail "entry 2 never reached process"
  in
  Alcotest.(check bool) "in-flight entry live before truncation" true (Myraft.Applier.live tk);
  (* Raft truncates entry 2 away (leader change rewound the log). *)
  Myraft.Applier.handle_truncation a ~from_index:2;
  Alcotest.(check bool) "retry loop fenced" false (Myraft.Applier.live tk);
  (* The regression: the zombie callbacks fire anyway — they must not
     re-advance applied_index past the rewound cursor. *)
  Myraft.Applier.finished tk ~ok:true;
  Myraft.Applier.submitted tk;
  Alcotest.(check int) "zombie completion ignored" 1 (Myraft.Applier.applied_index a);
  (* the replacement entry stream applies normally *)
  Myraft.Applier.signal a
    [| txn_entry ~last_committed:0 ~index:2 ~key:"b2" (); txn_entry ~last_committed:0 ~index:3 ~key:"c" () |]
    ~pos:0 ~len:2;
  Sim.Engine.run_for engine (100.0 *. ms);
  Alcotest.(check int) "replacement stream applied" 3 (Myraft.Applier.applied_index a)

let test_truncation_keeps_submitted_entries_below_point () =
  let engine = Sim.Engine.create () in
  let held = ref [] in
  let a =
    Myraft.Applier.create ~engine ~params:(params_with_workers 4) ()
      ~process:(fun e tk ->
        (* everything submits instantly but engine commit is pending *)
        held := (Binlog.Entry.index e, tk) :: !held;
        Myraft.Applier.submitted tk)
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
  List.iter (fun (_, tk) -> Myraft.Applier.finished tk ~ok:true) (List.rev !held);
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
  (* a pipeline item is (entry, ticket, prepared handle) *)
  let pipeline =
    Myraft.Pipeline.create ~engine ~params ~is_primary_path:false
      ~flush:(fun (entry, _, _) -> Binlog.Entry.index entry)
      ~finish:(fun (entry, tk, p) ~ok ->
        if ok then begin
          Storage.Engine.commit_prepared storage p ~opid:(Binlog.Entry.opid entry);
          Myraft.Applier.finished tk ~ok:true
        end
        else Myraft.Applier.finished tk ~ok:false)
      ()
  in
  let conflicts = ref 0 in
  let process entry tk =
    match Binlog.Entry.payload entry with
    | Binlog.Entry.Transaction { gtid; table; ops; _ } ->
      let rec try_prepare () =
        if not (Myraft.Applier.live tk) then ()
        else
          match Storage.Engine.prepare storage ~gtid ~table ~ops with
          | p ->
            Myraft.Pipeline.submit pipeline (entry, tk, p);
            Myraft.Applier.submitted tk
          | exception Storage.Engine.Lock_conflict _ ->
            incr conflicts;
            ignore (Sim.Engine.schedule engine ~delay:(50.0 *. Sim.Engine.us) try_prepare)
      in
      try_prepare ()
    | _ ->
      Myraft.Applier.finished tk ~ok:true;
      Myraft.Applier.submitted tk
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

(* ----- whole-cluster determinism ----- *)

(* One seeded §6.1 cluster under a closed-loop write load, replicas
   applying through parallel lanes.  Returns every replica's commit
   history (count, prefix digest, commit sequence) and the merged metric
   snapshot, gauges included. *)
let run_paper_cluster ~seed =
  let cluster =
    Myraft.Cluster.create ~seed ~replicaset:"rs-determinism"
      ~members:(Myraft.Cluster.paper_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  let gen =
    Workload.Generator.create ~backend:(Workload.Backend.myraft cluster) ~client_id:"det"
      ~region:"r1" ~client_latency:(100.0 *. Sim.Engine.us) ~key_space:500 ()
  in
  Workload.Generator.start_closed_loop gen ~threads:32;
  Myraft.Cluster.run_for cluster (300.0 *. ms);
  Workload.Generator.stop gen;
  Myraft.Cluster.run_for cluster (200.0 *. ms);
  let histories =
    List.map
      (fun srv ->
        let storage = Myraft.Server.storage srv in
        let n = Storage.Engine.committed_count storage in
        ( Myraft.Server.id srv,
          n,
          Storage.Engine.checksum_at storage ~count:n,
          List.init n (fun i -> Option.get (Storage.Engine.nth_commit storage i)) ))
      (Myraft.Cluster.servers cluster)
  in
  (histories, Obs.Metrics.to_json (Myraft.Cluster.metrics_snapshot cluster))

let test_cluster_runs_are_deterministic () =
  let histories_a, metrics_a = run_paper_cluster ~seed:29 in
  let histories_b, metrics_b = run_paper_cluster ~seed:29 in
  let replicas_applied =
    List.filter (fun (id, n, _, _) -> id <> "mysql1" && n > 0) histories_a
  in
  Alcotest.(check bool) "replicas applied commits" true (List.length replicas_applied >= 2);
  List.iter2
    (fun (id, n_a, sum_a, seq_a) (_, n_b, sum_b, seq_b) ->
      Alcotest.(check int) (id ^ ": commit count") n_a n_b;
      Alcotest.(check int32) (id ^ ": checksum_at") sum_a sum_b;
      Alcotest.(check bool) (id ^ ": nth_commit sequence") true (seq_a = seq_b))
    histories_a histories_b;
  Alcotest.(check string) "merged metric snapshot" metrics_a metrics_b

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
      ~ops:(Chaos.Nemesis.of_cluster cluster).Chaos.Nemesis.ops
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
        Alcotest.test_case "stamps across overflows match a list model" `Quick
          test_writeset_overflows_match_model;
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
        Alcotest.test_case "lag gauge follows rewinds" `Quick test_lag_gauge_tracks_rewinds;
        QCheck_alcotest.to_alcotest prop_lane_bookkeeping;
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
    ( "apply.determinism",
      [
        Alcotest.test_case "same seed, same history" `Quick
          test_cluster_runs_are_deterministic;
      ] );
  ]
