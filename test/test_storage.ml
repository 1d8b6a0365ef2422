(* Storage engine tests: 2PC prepare/commit/rollback, locks, recovery. *)

let gtid gno = Binlog.Gtid.make ~source:"srv1" ~gno

let opid index = Binlog.Opid.make ~term:1 ~index

let insert key value = Binlog.Event.Insert { key; value }

let test_prepare_commit_visible () =
  let e = Storage.Engine.create () in
  Storage.Engine.prepare e ~gtid:(gtid 1) ~writes:[ ("t", insert "k" "v") ];
  Alcotest.(check (option string)) "invisible while prepared" None
    (Storage.Engine.get e ~table:"t" ~key:"k");
  Storage.Engine.commit_prepared e ~gtid:(gtid 1) ~opid:(opid 1);
  Alcotest.(check (option string)) "visible after commit" (Some "v")
    (Storage.Engine.get e ~table:"t" ~key:"k");
  Alcotest.(check bool) "gtid executed" true (Storage.Engine.has_committed e (gtid 1));
  Alcotest.(check int) "committed count" 1 (Storage.Engine.committed_count e)

let test_rollback_discards () =
  let e = Storage.Engine.create () in
  Storage.Engine.prepare e ~gtid:(gtid 1) ~writes:[ ("t", insert "k" "v") ];
  Storage.Engine.rollback_prepared e ~gtid:(gtid 1);
  Alcotest.(check (option string)) "no data" None (Storage.Engine.get e ~table:"t" ~key:"k");
  Alcotest.(check bool) "gtid not executed" false (Storage.Engine.has_committed e (gtid 1));
  (* the same gtid can be prepared again (reapply after rollback, §A.2) *)
  Storage.Engine.prepare e ~gtid:(gtid 1) ~writes:[ ("t", insert "k" "v2") ];
  Storage.Engine.commit_prepared e ~gtid:(gtid 1) ~opid:(opid 1);
  Alcotest.(check (option string)) "reapplied" (Some "v2")
    (Storage.Engine.get e ~table:"t" ~key:"k")

let test_lock_conflict () =
  let e = Storage.Engine.create () in
  Storage.Engine.prepare e ~gtid:(gtid 1) ~writes:[ ("t", insert "k" "v") ];
  (match Storage.Engine.prepare e ~gtid:(gtid 2) ~writes:[ ("t", insert "k" "w") ] with
  | () -> Alcotest.fail "expected lock conflict"
  | exception Storage.Engine.Lock_conflict { holder; _ } ->
    Alcotest.(check bool) "held by txn 1" true (Binlog.Gtid.equal holder (gtid 1)));
  Storage.Engine.commit_prepared e ~gtid:(gtid 1) ~opid:(opid 1);
  (* lock released at engine commit *)
  Storage.Engine.prepare e ~gtid:(gtid 2) ~writes:[ ("t", insert "k" "w") ];
  Storage.Engine.commit_prepared e ~gtid:(gtid 2) ~opid:(opid 2);
  Alcotest.(check (option string)) "second write wins" (Some "w")
    (Storage.Engine.get e ~table:"t" ~key:"k")

let test_no_conflict_disjoint_keys () =
  let e = Storage.Engine.create () in
  Storage.Engine.prepare e ~gtid:(gtid 1) ~writes:[ ("t", insert "a" "1") ];
  Storage.Engine.prepare e ~gtid:(gtid 2) ~writes:[ ("t", insert "b" "2") ];
  Alcotest.(check int) "two prepared" 2 (List.length (Storage.Engine.prepared_gtids e))

let test_crash_recovery_rolls_back_prepared () =
  let e = Storage.Engine.create () in
  Storage.Engine.prepare e ~gtid:(gtid 1) ~writes:[ ("t", insert "a" "1") ];
  Storage.Engine.commit_prepared e ~gtid:(gtid 1) ~opid:(opid 1);
  Storage.Engine.prepare e ~gtid:(gtid 2) ~writes:[ ("t", insert "b" "2") ];
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
  Storage.Engine.prepare e ~gtid:(gtid 1) ~writes:[ ("t", insert "k" "v1") ];
  Storage.Engine.commit_prepared e ~gtid:(gtid 1) ~opid:(opid 1);
  Storage.Engine.prepare e ~gtid:(gtid 2)
    ~writes:[ ("t", Binlog.Event.Update { key = "k"; before = "v1"; after = "v2" }) ];
  Storage.Engine.commit_prepared e ~gtid:(gtid 2) ~opid:(opid 2);
  Alcotest.(check (option string)) "updated" (Some "v2")
    (Storage.Engine.get e ~table:"t" ~key:"k");
  Storage.Engine.prepare e ~gtid:(gtid 3)
    ~writes:[ ("t", Binlog.Event.Delete { key = "k"; before = "v2" }) ];
  Storage.Engine.commit_prepared e ~gtid:(gtid 3) ~opid:(opid 3);
  Alcotest.(check (option string)) "deleted" None (Storage.Engine.get e ~table:"t" ~key:"k");
  Alcotest.(check int) "row count" 0 (Storage.Engine.row_count e ~table:"t")

let test_checksum_equality () =
  let mk () =
    let e = Storage.Engine.create () in
    Storage.Engine.prepare e ~gtid:(gtid 1) ~writes:[ ("t", insert "a" "1") ];
    Storage.Engine.commit_prepared e ~gtid:(gtid 1) ~opid:(opid 1);
    Storage.Engine.prepare e ~gtid:(gtid 2) ~writes:[ ("u", insert "b" "2") ];
    Storage.Engine.commit_prepared e ~gtid:(gtid 2) ~opid:(opid 2);
    e
  in
  let a = mk () and b = mk () in
  Alcotest.(check int32) "identical content, identical checksum"
    (Storage.Engine.checksum a) (Storage.Engine.checksum b);
  Storage.Engine.prepare b ~gtid:(gtid 3) ~writes:[ ("t", insert "c" "3") ];
  Storage.Engine.commit_prepared b ~gtid:(gtid 3) ~opid:(opid 3);
  Alcotest.(check bool) "diverged content, different checksum" false
    (Int32.equal (Storage.Engine.checksum a) (Storage.Engine.checksum b))

let test_duplicate_prepare_rejected () =
  let e = Storage.Engine.create () in
  Storage.Engine.prepare e ~gtid:(gtid 1) ~writes:[ ("t", insert "a" "1") ];
  Alcotest.check_raises "duplicate" (Invalid_argument "Engine.prepare: duplicate gtid")
    (fun () -> Storage.Engine.prepare e ~gtid:(gtid 1) ~writes:[ ("t", insert "b" "2") ])

(* The commit history (digest chain and GTID/OpId log) rides the
   checkpoint: a restored engine answers checksum_at and nth_commit
   exactly as its source did, for every prefix. *)
let test_checkpoint_round_trip_keeps_history () =
  let src = Storage.Engine.create () in
  for i = 1 to 40 do
    Storage.Engine.prepare src ~gtid:(gtid i)
      ~writes:[ ("t", insert (Printf.sprintf "k%d" (i mod 7)) (string_of_int i)) ];
    Storage.Engine.commit_prepared src ~gtid:(gtid i) ~opid:(Binlog.Opid.make ~term:(1 + (i / 10)) ~index:i)
  done;
  let ck =
    Storage.Engine.decode_checkpoint
      (Storage.Engine.encode_checkpoint (Storage.Engine.checkpoint src))
  in
  let dst = Storage.Engine.create () in
  Storage.Engine.prepare dst ~gtid:(gtid 99) ~writes:[ ("t", insert "junk" "x") ];
  Storage.Engine.commit_prepared dst ~gtid:(gtid 99) ~opid:(opid 99);
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
      Storage.Engine.prepare e ~gtid:(gtid 41) ~writes:[ ("t", insert "k41" "41") ];
      Storage.Engine.commit_prepared e ~gtid:(gtid 41) ~opid:(opid 41))
    [ src; dst ];
  Alcotest.(check int32) "next digest"
    (Storage.Engine.checksum_at src ~count:41)
    (Storage.Engine.checksum_at dst ~count:41);
  Alcotest.(check bool) "digests differ per prefix" false
    (Int32.equal
       (Storage.Engine.checksum_at dst ~count:40)
       (Storage.Engine.checksum_at dst ~count:41))

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
        Alcotest.test_case "duplicate prepare rejected" `Quick test_duplicate_prepare_rejected;
        Alcotest.test_case "checkpoint round trip keeps history" `Quick
          test_checkpoint_round_trip_keeps_history;
      ] );
  ]
