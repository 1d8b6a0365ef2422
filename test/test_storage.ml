(* Storage engine tests: 2PC prepare/commit/rollback, locks, recovery. *)

let gtid gno = Binlog.Gtid.make ~source:"srv1" ~gno

let opid index = Binlog.Opid.make ~term:1 ~index

let insert key value = Binlog.Event.Insert { key; value }

(* A transaction writing [ops] on [table] (default "t"). *)
let prepare e ~gtid ?(table = "t") ops = Storage.Engine.prepare e ~gtid ~table ~ops

let test_prepare_commit_visible () =
  let e = Storage.Engine.create () in
  let p = prepare e ~gtid:(gtid 1) [ insert "k" "v" ] in
  Alcotest.(check (option string)) "invisible while prepared" None
    (Storage.Engine.get e ~table:"t" ~key:"k");
  Storage.Engine.commit_prepared e p ~opid:(opid 1);
  Alcotest.(check (option string)) "visible after commit" (Some "v")
    (Storage.Engine.get e ~table:"t" ~key:"k");
  Alcotest.(check bool) "gtid executed" true (Storage.Engine.has_committed e (gtid 1));
  Alcotest.(check int) "committed count" 1 (Storage.Engine.committed_count e)

let test_rollback_discards () =
  let e = Storage.Engine.create () in
  let p = prepare e ~gtid:(gtid 1) [ insert "k" "v" ] in
  Storage.Engine.rollback_prepared e p;
  Alcotest.(check (option string)) "no data" None (Storage.Engine.get e ~table:"t" ~key:"k");
  Alcotest.(check bool) "gtid not executed" false (Storage.Engine.has_committed e (gtid 1));
  (* the same gtid can be prepared again (reapply after rollback, §A.2) *)
  let p = prepare e ~gtid:(gtid 1) [ insert "k" "v2" ] in
  Storage.Engine.commit_prepared e p ~opid:(opid 1);
  Alcotest.(check (option string)) "reapplied" (Some "v2")
    (Storage.Engine.get e ~table:"t" ~key:"k")

let test_lock_conflict () =
  let e = Storage.Engine.create () in
  let p = prepare e ~gtid:(gtid 1) [ insert "k" "v" ] in
  (match prepare e ~gtid:(gtid 2) [ insert "k" "w" ] with
  | _ -> Alcotest.fail "expected lock conflict"
  | exception Storage.Engine.Lock_conflict { holder; _ } ->
    Alcotest.(check bool) "held by txn 1" true (Binlog.Gtid.equal holder (gtid 1)));
  Storage.Engine.commit_prepared e p ~opid:(opid 1);
  (* lock released at engine commit *)
  let p = prepare e ~gtid:(gtid 2) [ insert "k" "w" ] in
  Storage.Engine.commit_prepared e p ~opid:(opid 2);
  Alcotest.(check (option string)) "second write wins" (Some "w")
    (Storage.Engine.get e ~table:"t" ~key:"k")

let test_no_conflict_disjoint_keys () =
  let e = Storage.Engine.create () in
  ignore (prepare e ~gtid:(gtid 1) [ insert "a" "1" ]);
  ignore (prepare e ~gtid:(gtid 2) [ insert "b" "2" ]);
  Alcotest.(check int) "two prepared" 2 (List.length (Storage.Engine.prepared_gtids e))

let test_crash_recovery_rolls_back_prepared () =
  let e = Storage.Engine.create () in
  let p = prepare e ~gtid:(gtid 1) [ insert "a" "1" ] in
  Storage.Engine.commit_prepared e p ~opid:(opid 1);
  ignore (prepare e ~gtid:(gtid 2) [ insert "b" "2" ]);
  let rolled = Storage.Engine.crash_recover e in
  Alcotest.(check int) "one rolled back" 1 rolled;
  Alcotest.(check (option string)) "committed survives" (Some "1")
    (Storage.Engine.get e ~table:"t" ~key:"a");
  Alcotest.(check (option string)) "prepared gone" None
    (Storage.Engine.get e ~table:"t" ~key:"b");
  Alcotest.(check int) "recovery point" 1
    (Binlog.Opid.index (Storage.Engine.last_committed_opid e))

let test_update_delete_ops () =
  let e = Storage.Engine.create () in
  let p = prepare e ~gtid:(gtid 1) [ insert "k" "v1" ] in
  Storage.Engine.commit_prepared e p ~opid:(opid 1);
  let p = prepare e ~gtid:(gtid 2)
    [ Binlog.Event.Update { key = "k"; before = "v1"; after = "v2" } ] in
  Storage.Engine.commit_prepared e p ~opid:(opid 2);
  Alcotest.(check (option string)) "updated" (Some "v2")
    (Storage.Engine.get e ~table:"t" ~key:"k");
  let p = prepare e ~gtid:(gtid 3)
    [ Binlog.Event.Delete { key = "k"; before = "v2" } ] in
  Storage.Engine.commit_prepared e p ~opid:(opid 3);
  Alcotest.(check (option string)) "deleted" None (Storage.Engine.get e ~table:"t" ~key:"k");
  Alcotest.(check int) "row count" 0 (Storage.Engine.row_count e ~table:"t")

let test_checksum_equality () =
  let mk () =
    let e = Storage.Engine.create () in
    let p = prepare e ~gtid:(gtid 1) [ insert "a" "1" ] in
    Storage.Engine.commit_prepared e p ~opid:(opid 1);
    let p = prepare e ~gtid:(gtid 2) ~table:"u" [ insert "b" "2" ] in
    Storage.Engine.commit_prepared e p ~opid:(opid 2);
    e
  in
  let a = mk () and b = mk () in
  Alcotest.(check int32) "identical content, identical checksum"
    (Storage.Engine.checksum a) (Storage.Engine.checksum b);
  let p = prepare b ~gtid:(gtid 3) [ insert "c" "3" ] in
  Storage.Engine.commit_prepared b p ~opid:(opid 3);
  Alcotest.(check bool) "diverged content, different checksum" false
    (Int32.equal (Storage.Engine.checksum a) (Storage.Engine.checksum b))

(* Two engines hold equal rows: one shares a single value string across
   its rows, the other a fresh copy per row.  Content checksum and
   checkpoint bytes follow the rows alone, not the heap's sharing. *)
let test_sharing_invisible () =
  let shared = String.make 300 'd' in
  let mk value =
    let e = Storage.Engine.create () in
    for i = 1 to 20 do
      let p = prepare e ~gtid:(gtid i) [ insert ("row-" ^ Int.to_string i) (value ()) ] in
      Storage.Engine.commit_prepared e p ~opid:(opid i)
    done;
    e
  in
  let a = mk (fun () -> shared) and b = mk (fun () -> String.make 300 'd') in
  Alcotest.(check int32) "checksum" (Storage.Engine.checksum b) (Storage.Engine.checksum a);
  let encode e = Storage.Engine.encode_checkpoint (Storage.Engine.checkpoint e) in
  Alcotest.(check bool) "encoded checkpoints equal" true (String.equal (encode a) (encode b))

let test_duplicate_prepare_rejected () =
  let e = Storage.Engine.create () in
  ignore (prepare e ~gtid:(gtid 1) [ insert "a" "1" ]);
  Alcotest.check_raises "duplicate" (Invalid_argument "Engine.prepare: duplicate gtid")
    (fun () -> ignore (prepare e ~gtid:(gtid 1) [ insert "b" "2" ]))

(* The commit history (digest chain and GTID/OpId log) rides the
   checkpoint: a restored engine answers checksum_at and nth_commit
   exactly as its source did, for every prefix. *)
let test_checkpoint_round_trip_keeps_history () =
  let src = Storage.Engine.create () in
  for i = 1 to 40 do
    let p = prepare src ~gtid:(gtid i)
      [ insert (Printf.sprintf "k%d" (i mod 7)) (string_of_int i) ] in
    Storage.Engine.commit_prepared src p ~opid:(Binlog.Opid.make ~term:(1 + (i / 10)) ~index:i)
  done;
  let ck =
    Storage.Engine.decode_checkpoint
      (Storage.Engine.encode_checkpoint (Storage.Engine.checkpoint src))
  in
  let dst = Storage.Engine.create () in
  let p = prepare dst ~gtid:(gtid 99) [ insert "junk" "x" ] in
  Storage.Engine.commit_prepared dst p ~opid:(opid 99);
  Storage.Engine.restore dst ck;
  Alcotest.(check int) "committed count" 40 (Storage.Engine.committed_count dst);
  for count = 0 to 40 do
    Alcotest.(check int32)
      (Printf.sprintf "checksum_at %d" count)
      (Storage.Engine.checksum_at src ~count)
      (Storage.Engine.checksum_at dst ~count)
  done;
  let show = function
    | None -> "none"
    | Some (g, o) -> Binlog.Gtid.to_string g ^ "@" ^ Binlog.Opid.to_string o
  in
  for n = -1 to 41 do
    Alcotest.(check string)
      (Printf.sprintf "nth_commit %d" n)
      (show (Storage.Engine.nth_commit src n))
      (show (Storage.Engine.nth_commit dst n))
  done;
  (* the chain keeps extending identically after the restore *)
  List.iter
    (fun e ->
      let p = prepare e ~gtid:(gtid 41) [ insert "k41" "41" ] in
      Storage.Engine.commit_prepared e p ~opid:(opid 41))
    [ src; dst ];
  Alcotest.(check int32) "next digest"
    (Storage.Engine.checksum_at src ~count:41)
    (Storage.Engine.checksum_at dst ~count:41);
  Alcotest.(check bool) "digests differ per prefix" false
    (Int32.equal
       (Storage.Engine.checksum_at dst ~count:40)
       (Storage.Engine.checksum_at dst ~count:41))

(* ----- allocation on the commit path ----- *)

(* The next gno of the open tip only bumps an int, and membership
   checks (tip, folded intervals, misses) build no option or closure. *)
let test_tip_add_and_has_committed_allocate_nothing () =
  let words, _ = Kit.Alloc.tip_add () in
  Alcotest.(check (float 0.)) "words per tip add" 0.0 words;
  let gtids = Array.init 1_000 (fun i -> gtid (i + 1)) in
  let e = Storage.Engine.create () in
  for i = 0 to 99 do
    let p = prepare e ~gtid:gtids.(i) [ insert "k" (string_of_int i) ] in
    Storage.Engine.commit_prepared e p ~opid:(opid (i + 1))
  done;
  (* fold the tip so later lookups also walk the persistent set *)
  ignore (Storage.Engine.gtid_executed e);
  let p = prepare e ~gtid:gtids.(100) [ insert "k" "x" ] in
  Storage.Engine.commit_prepared e p ~opid:(opid 101);
  let other = Binlog.Gtid.make ~source:"srv2" ~gno:1 in
  let hits = ref 0 in
  let words =
    Kit.Alloc.minor_words (fun () ->
        for i = 0 to 999 do
          if Storage.Engine.has_committed e gtids.(i) then incr hits;
          if Storage.Engine.has_committed e other then incr hits
        done)
  in
  Alcotest.(check int) "committed gtids found" 101 !hits;
  Alcotest.(check (float 0.)) "words per 2k has_committed" 0.0 words

(* A steady-state one-row update: the handle, its slot array and the
   by-GTID entry are all it allocates (the digest and commit-order
   columns grow by chunks).  Measured at 11.2 words; a row record, a
   lock-table key or a Gtid_set.add per commit pushes it past the
   bound. *)
let prepare_commit_words = 12

let test_prepare_commit_words () =
  let per_txn, _ = Kit.Alloc.prepare_commit () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per prepare+commit <= %d" per_txn prepare_commit_words)
    true
    (per_txn <= float_of_int prepare_commit_words)

let suites =
  [
    ( "storage.engine",
      [
        Alcotest.test_case "prepare/commit visibility" `Quick test_prepare_commit_visible;
        Alcotest.test_case "rollback discards" `Quick test_rollback_discards;
        Alcotest.test_case "lock conflict" `Quick test_lock_conflict;
        Alcotest.test_case "disjoint keys no conflict" `Quick test_no_conflict_disjoint_keys;
        Alcotest.test_case "crash recovery" `Quick test_crash_recovery_rolls_back_prepared;
        Alcotest.test_case "update/delete" `Quick test_update_delete_ops;
        Alcotest.test_case "content checksums" `Quick test_checksum_equality;
        Alcotest.test_case "heap sharing changes no checksum or checkpoint" `Quick
          test_sharing_invisible;
        Alcotest.test_case "duplicate prepare rejected" `Quick test_duplicate_prepare_rejected;
        Alcotest.test_case "checkpoint round trip keeps history" `Quick
          test_checkpoint_round_trip_keeps_history;
      ] );
    ( "storage.alloc",
      [
        Alcotest.test_case "tip add and has_committed allocate nothing" `Quick
          test_tip_add_and_has_committed_allocate_nothing;
        Alcotest.test_case "1-row prepare+commit words" `Quick test_prepare_commit_words;
      ] );
  ]
