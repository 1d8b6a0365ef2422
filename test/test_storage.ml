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

(* A scripted history whose checkpoint bytes, prefix digests and commit
   log are pinned to literal values below, so a change to how the
   engine stores its rows or its history must answer exactly as
   before.  The first part runs on [src] only and ends with a lock
   parked on the absent key "q"; the second runs on [src] and on an
   engine restored from [src]'s checkpoint taken between the two. *)
let scripted_history_pins () =
  let commit e ?(table = "t") source gno ~term ~index ops =
    let p = prepare e ~gtid:(Binlog.Gtid.make ~source ~gno) ~table ops in
    Storage.Engine.commit_prepared e p ~opid:(Binlog.Opid.make ~term ~index)
  in
  let update key before after = Binlog.Event.Update { key; before; after } in
  let delete key before = Binlog.Event.Delete { key; before } in
  let src = Storage.Engine.create () in
  (* Term 1, srv1 primary; index 1 is its no-op. *)
  commit src "srv1" 1 ~term:1 ~index:2 [ insert "a" "1"; insert "b" "2" ];
  commit src "srv1" 2 ~term:1 ~index:3 [ insert "c" "3" ];
  commit src ~table:"u" "srv1" 3 ~term:1 ~index:4 [ insert "x" "9" ];
  (* Index 5 is a config entry. *)
  commit src "srv1" 4 ~term:1 ~index:6 [ update "a" "1" "10" ];
  (* srv1:5 aborts before it is logged: its lock parked on the absent
     "z" goes, and its gno stays a gap. *)
  let aborted =
    prepare src ~gtid:(Binlog.Gtid.make ~source:"srv1" ~gno:5) [ insert "z" "0" ]
  in
  Storage.Engine.rollback_prepared src aborted;
  commit src "srv1" 6 ~term:1 ~index:7 [ delete "b" "2" ];
  (* A run long enough to cross a history chunk, over enough keys to
     double the row table twice; a deleted key comes back at a later
     update. *)
  for i = 0 to 4_499 do
    let key = Printf.sprintf "k%d" (i mod 300) in
    let op =
      if i < 300 then insert key "0"
      else if i mod 11 = 0 then delete key "0"
      else update key "0" (string_of_int i)
    in
    commit src "srv1" (7 + i) ~term:1 ~index:(8 + i) [ op ]
  done;
  let parked =
    prepare src ~gtid:(Binlog.Gtid.make ~source:"srv1" ~gno:4507) [ insert "q" "p" ]
  in
  let mid = Storage.Engine.checkpoint src in
  Storage.Engine.rollback_prepared src parked;
  let dst = Storage.Engine.create () in
  commit dst "junk" 1 ~term:9 ~index:1 [ insert "junk" "x" ];
  Storage.Engine.restore dst
    (Storage.Engine.decode_checkpoint (Storage.Engine.encode_checkpoint mid));
  (* Term 2, srv2 primary; index 4508 is its no-op. *)
  List.iter
    (fun e ->
      commit e "srv2" 1 ~term:2 ~index:4509 [ insert "d" "4" ];
      commit e "srv2" 2 ~term:2 ~index:4510 [ update "d" "4" "5" ];
      commit e ~table:"u" "srv2" 3 ~term:2 ~index:4511 [ delete "x" "9" ];
      commit e "srv2" 4 ~term:2 ~index:4512 [ insert "q" "q" ])
    [ src; dst ];
  let crc_of_checkpoint e =
    Binlog.Checksum.string
      (Storage.Engine.encode_checkpoint (Storage.Engine.checkpoint e))
  in
  let show = function
    | None -> "none"
    | Some (g, o) -> Binlog.Gtid.to_string g ^ "@" ^ Binlog.Opid.to_string o
  in
  let history e =
    String.concat " "
      (List.init (Storage.Engine.committed_count e + 2) (fun n ->
           show (Storage.Engine.nth_commit e (n - 1))))
  in
  Alcotest.(check int32) "mid-way checkpoint bytes" (-1261200037l)
    (Binlog.Checksum.string (Storage.Engine.encode_checkpoint mid));
  List.iter
    (fun (name, e) ->
      Alcotest.(check int) (name ^ " committed count") 4_509
        (Storage.Engine.committed_count e);
      Alcotest.(check int32) (name ^ " checkpoint bytes") 21807882l (crc_of_checkpoint e);
      List.iter
        (fun (count, want) ->
          Alcotest.(check int32)
            (Printf.sprintf "%s checksum_at %d" name count)
            want
            (Storage.Engine.checksum_at e ~count))
        [
          (0, 0l);
          (1, 2114120374l);
          (4, 7717002l);
          (5, 1161566765l);
          (6, 1863791841l);
          (4_096, -12311315l);
          (4_097, 1354072097l);
          (4_505, 1740439345l);
          (4_506, 950242779l);
          (4_509, 1252954067l);
        ];
      List.iter
        (fun (n, want) ->
          Alcotest.(check string) (Printf.sprintf "%s nth_commit %d" name n) want
            (show (Storage.Engine.nth_commit e n)))
        [
          (-1, "none");
          (0, "srv1:1@1.2");
          (3, "srv1:4@1.6");
          (4, "srv1:6@1.7");
          (5, "srv1:7@1.8");
          (4_095, "srv1:4097@1.4098");
          (4_096, "srv1:4098@1.4099");
          (4_504, "srv1:4506@1.4507");
          (4_505, "srv2:1@2.4509");
          (4_508, "srv2:4@2.4512");
          (4_509, "none");
        ];
      Alcotest.(check int32) (name ^ " whole commit log") (-180487028l)
        (Binlog.Checksum.string (history e)))
    [ ("source", src); ("restored", dst) ]

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
       (Storage.Engine.checksum_at dst ~count:41));
  scripted_history_pins ()

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
   by-GTID entry are all it allocates (the commit history grows by
   chunks).  Measured at 11.0 words (11.2 with three word columns of
   history); a row record, a lock-table key or a Gtid_set.add per
   commit pushes it past the bound. *)
let prepare_commit_words = 12

let test_prepare_commit_words () =
  let per_txn, _ = Kit.Alloc.prepare_commit () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per prepare+commit <= %d" per_txn prepare_commit_words)
    true
    (per_txn <= float_of_int prepare_commit_words)

(* Commit history a standalone engine retains per commit, GTID and OpId
   blocks excluded (a replica's log entries hold them): 0.50 words, the
   digest chain's 4 bytes; the runs of GTIDs and OpIds add nothing
   while gnos and indexes run on.  Three word columns (digest, GTID
   pointer, OpId pointer) read 3.0. *)
let history_words_bound = 1.0

let test_history_words () =
  let words, _ = Kit.Alloc.engine_history () in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f history words per commit <= %.1f" words history_words_bound)
    true
    (words <= history_words_bound)

(* Words a standalone engine retains per row it gains: the 6-word slot,
   which is its own chain cell, and half a word of the table's bucket
   array, 6.5 in all.  A 4-word slot in a [Hashtbl] cell of 4 more read
   8.5; the bound sits 2 words below that. *)
let row_words_bound = 6.5

let test_row_words () =
  let words, _ = Kit.Alloc.engine_row () in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f words per new row <= %.1f" words row_words_bound)
    true (words <= row_words_bound)

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
        Alcotest.test_case "history words per commit" `Quick test_history_words;
        Alcotest.test_case "row words per new key" `Quick test_row_words;
      ] );
  ]
