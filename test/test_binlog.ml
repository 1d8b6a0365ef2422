(* Binlog substrate tests: OpIds, GTID sets (with qcheck properties),
   entries/checksums, and the log store (append/rotate/truncate/purge/
   rewire). *)

let gtid source gno = Binlog.Gtid.make ~source ~gno

let sample_txn_payload ?(source = "srv1") ?(gno = 1) () =
  Binlog.Entry.Transaction
    {
      gtid = gtid source gno;
      table = "t";
      ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ];
      xid = 1;
    }

let entry ~term ~index ?source ?gno () =
  Binlog.Entry.make
    ~opid:(Binlog.Opid.make ~term ~index)
    (sample_txn_payload ?source ~gno:(Option.value gno ~default:index) ())

(* ----- Opid ----- *)

let test_opid_ordering () =
  let a = Binlog.Opid.make ~term:2 ~index:5 in
  let b = Binlog.Opid.make ~term:3 ~index:1 in
  let c = Binlog.Opid.make ~term:3 ~index:2 in
  Alcotest.(check bool) "higher term wins" true (Binlog.Opid.compare b a > 0);
  Alcotest.(check bool) "same term by index" true (Binlog.Opid.compare c b > 0);
  Alcotest.(check bool) "up-to-date reflexive" true
    (Binlog.Opid.at_least_as_up_to_date_as a a)

(* ----- Gtid_set ----- *)

let test_gtid_set_add_contains () =
  let s = Binlog.Gtid_set.add Binlog.Gtid_set.empty (gtid "a" 5) in
  Alcotest.(check bool) "contains added" true (Binlog.Gtid_set.contains s (gtid "a" 5));
  Alcotest.(check bool) "not other gno" false (Binlog.Gtid_set.contains s (gtid "a" 4));
  Alcotest.(check bool) "not other source" false (Binlog.Gtid_set.contains s (gtid "b" 5))

let test_gtid_set_interval_merge () =
  let s =
    List.fold_left Binlog.Gtid_set.add Binlog.Gtid_set.empty
      [ gtid "a" 1; gtid "a" 3; gtid "a" 2 ]
  in
  Alcotest.(check string) "merged to one interval" "a:1-3" (Binlog.Gtid_set.to_string s)

let test_gtid_set_remove_splits () =
  let s = Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"a" ~lo:1 ~hi:5 in
  let s = Binlog.Gtid_set.remove s (gtid "a" 3) in
  Alcotest.(check string) "split" "a:1-2:4-5" (Binlog.Gtid_set.to_string s);
  Alcotest.(check int) "cardinal" 4 (Binlog.Gtid_set.cardinal s)

let test_gtid_set_union_subset () =
  let a = Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"x" ~lo:1 ~hi:3 in
  let b = Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"x" ~lo:3 ~hi:6 in
  let u = Binlog.Gtid_set.union a b in
  Alcotest.(check string) "union merged" "x:1-6" (Binlog.Gtid_set.to_string u);
  Alcotest.(check bool) "a subset u" true (Binlog.Gtid_set.subset a u);
  Alcotest.(check bool) "u not subset a" false (Binlog.Gtid_set.subset u a)

let test_gtid_set_max_gno () =
  let s = Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"a" ~lo:2 ~hi:9 in
  Alcotest.(check int) "max gno" 9 (Binlog.Gtid_set.max_gno s ~source:"a");
  Alcotest.(check int) "missing source" 0 (Binlog.Gtid_set.max_gno s ~source:"b")

let gtid_list_gen =
  QCheck.(list_of_size Gen.(1 -- 60) (pair (oneofl [ "s1"; "s2"; "s3" ]) (1 -- 30)))

let prop_gtid_set_contains_all_added =
  QCheck.Test.make ~name:"set contains everything added" ~count:300 gtid_list_gen
    (fun pairs ->
      let set =
        List.fold_left
          (fun acc (src, gno) -> Binlog.Gtid_set.add acc (gtid src gno))
          Binlog.Gtid_set.empty pairs
      in
      List.for_all (fun (src, gno) -> Binlog.Gtid_set.contains set (gtid src gno)) pairs)

let prop_gtid_set_cardinal_matches =
  QCheck.Test.make ~name:"cardinal = distinct count" ~count:300 gtid_list_gen
    (fun pairs ->
      let set =
        List.fold_left
          (fun acc (src, gno) -> Binlog.Gtid_set.add acc (gtid src gno))
          Binlog.Gtid_set.empty pairs
      in
      Binlog.Gtid_set.cardinal set = List.length (List.sort_uniq compare pairs))

let prop_gtid_set_remove_then_absent =
  QCheck.Test.make ~name:"remove makes absent, keeps others" ~count:300 gtid_list_gen
    (fun pairs ->
      QCheck.assume (pairs <> []);
      let set =
        List.fold_left
          (fun acc (src, gno) -> Binlog.Gtid_set.add acc (gtid src gno))
          Binlog.Gtid_set.empty pairs
      in
      let src, gno = List.hd pairs in
      let removed = Binlog.Gtid_set.remove set (gtid src gno) in
      (not (Binlog.Gtid_set.contains removed (gtid src gno)))
      && List.for_all
           (fun (s, g) ->
             (s, g) = (src, gno) || Binlog.Gtid_set.contains removed (gtid s g))
           pairs)

let prop_gtid_set_union_commutes =
  QCheck.Test.make ~name:"union commutes" ~count:300 (QCheck.pair gtid_list_gen gtid_list_gen)
    (fun (pa, pb) ->
      let mk pairs =
        List.fold_left
          (fun acc (src, gno) -> Binlog.Gtid_set.add acc (gtid src gno))
          Binlog.Gtid_set.empty pairs
      in
      let a = mk pa and b = mk pb in
      Binlog.Gtid_set.equal (Binlog.Gtid_set.union a b) (Binlog.Gtid_set.union b a))

(* ----- checksum / entry ----- *)

let test_crc32_known_value () =
  (* CRC-32 of "123456789" is 0xCBF43926 (IEEE). *)
  Alcotest.(check int32) "crc32 vector" 0xCBF43926l (Binlog.Checksum.string "123456789")

(* Bit-at-a-time CRC-32 straight from the polynomial: the reference the
   sliced table implementation must match. *)
let reference_crc32 s =
  let crc = ref 0xFFFFFFFF in
  String.iter
    (fun ch ->
      crc := !crc lxor Char.code ch;
      for _ = 0 to 7 do
        crc := if !crc land 1 <> 0 then 0xEDB88320 lxor (!crc lsr 1) else !crc lsr 1
      done)
    s;
  Int32.of_int (!crc lxor 0xFFFFFFFF)

let prop_sliced_crc_matches_bytewise =
  QCheck.Test.make ~name:"sliced feed_string equals the bytewise CRC at any split"
    ~count:1000
    QCheck.(pair (string_of_size Gen.(0 -- 100)) small_nat)
    (fun (s, cut) ->
      let n = String.length s in
      let k = cut mod (n + 1) in
      let open Binlog.Checksum in
      let st = feed_string (feed_string init (String.sub s 0 k)) (String.sub s k (n - k)) in
      let expected = reference_crc32 s in
      Int32.equal (finalize st) expected && Int32.equal (string s) expected)

let test_entry_checksum_roundtrip () =
  let e = entry ~term:1 ~index:1 () in
  Alcotest.(check bool) "verifies" true (Binlog.Entry.verify e)

let test_entry_size_positive () =
  let e = entry ~term:1 ~index:1 () in
  Alcotest.(check bool) "has size" true (Binlog.Entry.size e > 0)

(* ----- corruption detection (the chaos disk-rot model) ----- *)

(* The entry checksum covers every field of every payload constructor:
   changing any single one — including moving bytes across a string
   boundary — changes the CRC, so an entry whose stored payload was
   mutated under its stamped checksum fails [verify]. *)
let test_every_field_mutation_detected () =
  let open Binlog in
  let g = gtid "srv1" 7 in
  let ins key value = Event.Insert { key; value } in
  let upd key before after = Event.Update { key; before; after } in
  let del key before = Event.Delete { key; before } in
  let i0 = ins "ab" "c" and u0 = upd "k" "v" "w" and d0 = del "k" "w" in
  let txn ?(gtid = g) ?(table = "t") ?(ops = [ i0; u0; d0 ]) ?(xid = 42) () =
    Entry.Transaction { gtid; table; ops; xid }
  in
  let row_ops ops = txn ~ops () in
  let config description encoded = Entry.Config_change { description; encoded } in
  let rotate next_file = Entry.Rotate_marker { next_file } in
  let cases =
    [
      ( txn (),
        [
          ("gtid source", txn ~gtid:(gtid "srv2" 7) ());
          ("gtid gno", txn ~gtid:(gtid "srv1" 8) ());
          ("table", txn ~table:"u" ());
          ("table/row boundary", txn ~table:"ta" ~ops:[ ins "b" "c"; u0; d0 ] ());
          ("row dropped", row_ops [ i0; u0 ]);
          ("row appended", row_ops [ i0; u0; d0; d0 ]);
          ("rows reordered", row_ops [ u0; i0; d0 ]);
          ("insert key/value boundary", row_ops [ ins "a" "bc"; u0; d0 ]);
          ("insert value", row_ops [ ins "ab" "d"; u0; d0 ]);
          ("update key", row_ops [ i0; upd "j" "v" "w"; d0 ]);
          ("update before", row_ops [ i0; upd "k" "x" "w"; d0 ]);
          ("update after", row_ops [ i0; upd "k" "v" "x"; d0 ]);
          ("delete key", row_ops [ i0; u0; del "j" "w" ]);
          ("delete before", row_ops [ i0; u0; del "k" "x" ]);
          ("op kind", row_ops [ i0; u0; ins "k" "w" ]);
          ("xid low word", txn ~xid:43 ());
          ("xid high word", txn ~xid:(42 + (1 lsl 40)) ());
          ("xid sign bit", txn ~xid:(42 lor min_int) ());
        ] );
      (Entry.Noop, [ ("kind", rotate "") ]);
      ( config "add my9" "+my9",
        [
          ("description", config "add my8" "+my9");
          ("encoded", config "add my9" "+my8");
          ("field boundary", config "add my9+" "my9");
        ] );
      (rotate "binlog.000003", [ ("next file", rotate "binlog.000004") ]);
    ]
  in
  let opid = Opid.make ~term:1 ~index:1 in
  List.iter
    (fun (base, mutations) ->
      let stamped = Entry.make ~opid base in
      let name = Entry.describe stamped in
      Alcotest.(check bool) (name ^ " verifies") true (Entry.verify stamped);
      List.iter
        (fun (field, mutated) ->
          Alcotest.(check bool)
            (name ^ ": " ^ field ^ " changes the checksum")
            false
            (Int32.equal (Entry.checksum stamped)
               (Entry.checksum (Entry.make ~opid mutated))))
        mutations)
    cases

let check_rot_detected cases =
  List.iter
    (fun (name, payload) ->
      let e = Binlog.Entry.make ~opid:(Binlog.Opid.make ~term:1 ~index:1) payload in
      Alcotest.(check bool) (name ^ ": clean verifies") true (Binlog.Entry.verify e);
      List.iter
        (fun flavor ->
          Alcotest.(check bool)
            (name ^ ": rot detected") false
            (Binlog.Entry.verify (Binlog.Entry.corrupt e flavor)))
        [ Binlog.Entry.Header; Binlog.Entry.Body ])
    cases

(* A transaction entry carries the events its record derives: the GTID
   event, table map and XID always, and a rows event per row-op kind.
   Each shape verifies clean when stamped, and both corruption flavours
   (payload rot under a stale checksum, bit-rot inside the checksum
   field) make [verify] fail. *)
let test_corruption_detected_every_event_variant () =
  let txn ops =
    Binlog.Entry.Transaction { gtid = gtid "srv1" 7; table = "t"; ops; xid = 9 }
  in
  let ins = Binlog.Event.Insert { key = "k"; value = "v" }
  and upd = Binlog.Event.Update { key = "k"; before = "v"; after = "w" }
  and del = Binlog.Event.Delete { key = "k"; before = "w" } in
  check_rot_detected
    [
      ("gtid+table-map+xid", txn []);
      ("insert", txn [ ins ]);
      ("update", txn [ upd ]);
      ("delete", txn [ del ]);
      ("write-rows", txn [ ins; upd; del ]);
    ]

let test_corruption_detected_non_txn_payloads () =
  check_rot_detected
    [
      ("noop", Binlog.Entry.Noop);
      ("config-change", Binlog.Entry.Config_change { description = "add my9"; encoded = "+my9" });
      ("rotate-marker", Binlog.Entry.Rotate_marker { next_file = "binlog.000003" });
    ]

(* The XID feeds the checksum as the two 32-bit halves of a 64-bit
   integer.  These values were stamped when the XID was an [int64], so
   holding it as an int changed no entry checksum: [Entry.verify] of
   stored entries and chaos digests are as before.  The second and third
   XIDs need more than 32 bits. *)
let test_xid_checksums () =
  let g = gtid "mysql1" 12_345 and table = "sbtest" in
  let txn xid =
    Binlog.Entry.Transaction
      {
        gtid = g;
        table;
        ops = [ Binlog.Event.Insert { key = "row-12345"; value = "v" } ];
        xid;
      }
  in
  let opid = Binlog.Opid.make ~term:3 ~index:12_345 in
  List.iter
    (fun (xid, expected) ->
      let e = Binlog.Entry.make ~opid (txn xid) in
      Alcotest.(check int32) (Printf.sprintf "xid %d" xid) expected (Binlog.Entry.checksum e);
      Alcotest.(check bool) (Printf.sprintf "xid %d verifies" xid) true (Binlog.Entry.verify e))
    [
      (12_345, 1791455829l);
      ((1 lsl 32) + 12_345, -995105852l);
      (0x0123_4567_89AB_CDEF, -970030457l);
    ]

(* A transaction as [Server.submit_write] builds it (GTID, one ~300 B
   insert on a table, XID) with its WRITESET deps stamped, as the log
   retains it.  Apart from the row's key and value strings it is 27
   words: the entry record (6), opid (3), the transaction record (5,
   the XID an immediate int), GTID and its source (5), the table string
   (2), the row-op list cell and record (6).  An option, a boxed [int32]
   or [int64], a list of events or a wrapper record per entry shows up
   here; the four-event list form read 46. *)
let test_entry_layout_words () =
  let key = "row-12345" and value = String.make 300 'd' in
  let e =
    Binlog.Entry.make
      ~opid:(Binlog.Opid.make ~term:3 ~index:12_345)
      (Binlog.Entry.Transaction
         {
           gtid = gtid "mysql1" 12_345;
           table = "sbtest";
           ops = [ Binlog.Event.Insert { key; value } ];
           xid = 12_345;
         })
  in
  Binlog.Entry.set_deps e ~last_committed:12_000;
  let words x = Obj.reachable_words (Obj.repr x) in
  let own = words e - words key - words value in
  Alcotest.(check bool) (Printf.sprintf "%d words <= 27" own) true (own <= 27)

(* ----- framing pins ----- *)

(* A transaction as a primary logs it, one table's rows. *)
let logged_txn ~gno ~table ~ops ~xid =
  Binlog.Entry.Transaction { gtid = gtid "mysql1" gno; table; ops; xid }

(* Checksum, size and description of production-shaped entries, pinned
   as literals: the byte stream the CRC reads, the size the network and
   the log account and the trace text all depend only on what a
   transaction holds, never on how an entry lays it out in memory. *)
let test_framing_pins () =
  let opid = Binlog.Opid.make ~term:3 ~index:12_345 in
  let ins key value = Binlog.Event.Insert { key; value } in
  let upd key before after = Binlog.Event.Update { key; before; after } in
  let del key before = Binlog.Event.Delete { key; before } in
  let cases =
    [
      ( "insert 300 B",
        logged_txn ~gno:12_345 ~table:"sbtest" ~xid:12_345
          ~ops:[ ins "row-12345" (String.make 300 'd') ] );
      ( "update",
        logged_txn ~gno:7 ~table:"sbtest" ~xid:9
          ~ops:[ upd "row-7" (String.make 40 'a') (String.make 40 'b') ] );
      ("delete", logged_txn ~gno:8 ~table:"t" ~xid:10 ~ops:[ del "row-8" "gone" ]);
      ( "3-op write",
        logged_txn ~gno:9 ~table:"accounts" ~xid:(1 lsl 33)
          ~ops:[ ins "a" "1"; upd "b" "2" "3"; del "c" "4" ] );
      ("noop", Binlog.Entry.Noop);
      ("config-change", Binlog.Entry.Config_change { description = "add my9"; encoded = "+my9" });
      ("rotate-marker", Binlog.Entry.Rotate_marker { next_file = "binlog.000003" });
    ]
  in
  let expected =
    [
      ("insert 300 B", -1323533136l, 493, "[3.12345] txn mysql1:12345 (4 events)");
      ("update", -1597892083l, 269, "[3.12345] txn mysql1:7 (4 events)");
      ("delete", -443031216l, 183, "[3.12345] txn mysql1:8 (4 events)");
      ("3-op write", -606354753l, 211, "[3.12345] txn mysql1:9 (4 events)");
      ("noop", 654825492l, 47, "[3.12345] noop");
      ("config-change", -133776241l, 60, "[3.12345] config: add my9");
      ("rotate-marker", 826087681l, 56, "[3.12345] rotate -> binlog.000003");
    ]
  in
  List.iter2
    (fun (name, payload) (name', crc, size, text) ->
      Alcotest.(check string) "case order" name' name;
      let e = Binlog.Entry.make ~opid payload in
      Alcotest.(check int32) (name ^ " checksum") crc (Binlog.Entry.checksum e);
      Alcotest.(check int) (name ^ " size") size (Binlog.Entry.size e);
      Alcotest.(check string) (name ^ " description") text (Binlog.Entry.describe e))
    cases expected

(* Body rot on a transaction flips a bit of its XID, which no replica
   applies: [verify] fails, while the GTID, table and rows a replica
   would apply are the stamped ones, so an applied rotted entry changes
   no engine state. *)
let test_body_rot_keeps_rows () =
  let e = entry ~term:2 ~index:9 () in
  let rotted = Binlog.Entry.corrupt e Binlog.Entry.Body in
  Alcotest.(check bool) "body rot fails verify" false (Binlog.Entry.verify rotted);
  match (Binlog.Entry.payload e, Binlog.Entry.payload rotted) with
  | ( Binlog.Entry.Transaction { gtid; table; ops; xid },
      Binlog.Entry.Transaction
        { gtid = gtid'; table = table'; ops = ops'; xid = xid' } ) ->
    Alcotest.(check bool) "gtid kept" true (Binlog.Gtid.equal gtid gtid');
    Alcotest.(check string) "table kept" table table';
    Alcotest.(check bool) "ops untouched" true (ops == ops');
    Alcotest.(check bool) "xid mangled" true (xid <> xid')
  | _ -> Alcotest.fail "body rot changed the payload kind"

let test_entry_verify_and_deps () =
  let e = entry ~term:2 ~index:9 () in
  Alcotest.(check bool) "clean verifies" true (Binlog.Entry.verify e);
  Alcotest.(check bool) "header rot fails" false
    (Binlog.Entry.verify (Binlog.Entry.corrupt e Binlog.Entry.Header));
  Alcotest.(check bool) "body rot fails" false
    (Binlog.Entry.verify (Binlog.Entry.corrupt e Binlog.Entry.Body));
  Alcotest.(check bool) "no deps before stamping" true (Binlog.Entry.deps e = None);
  Alcotest.(check int) "last_committed unset" (-1) (Binlog.Entry.last_committed e);
  Binlog.Entry.set_deps e ~last_committed:0;
  Alcotest.(check bool) "deps stamped" true
    (Binlog.Entry.deps e = Some { Binlog.Entry.last_committed = 0; sequence_number = 9 });
  Alcotest.(check int) "last_committed stamped" 0 (Binlog.Entry.last_committed e);
  Alcotest.(check bool) "stamp is outside the checksum" true (Binlog.Entry.verify e);
  let moved = Binlog.Entry.with_opid e ~opid:(Binlog.Opid.make ~term:3 ~index:9) in
  Alcotest.(check bool) "re-stamping keeps deps" true
    (Binlog.Entry.deps moved = Binlog.Entry.deps e)

(* CRC-32 guarantee the recovery scan leans on: ANY single-bit flip in
   an entry's stored payload bytes changes the checksum, so corruption
   of one bit can never slip through [verify] on re-read. *)
let prop_single_bit_flip_detected =
  QCheck.Test.make ~name:"single-bit flip in stored payload bytes is always detected"
    ~count:500
    QCheck.(
      triple
        (pair small_nat (string_of_size Gen.(1 -- 20)))
        (string_of_size Gen.(0 -- 40))
        small_nat)
    (fun ((gno, key), value, bitpos) ->
      let payload key value =
        Binlog.Entry.Transaction
          {
            gtid = gtid "srv1" (gno + 1);
            table = "t";
            ops = [ Binlog.Event.Insert { key; value } ];
            xid = gno;
          }
      in
      let opid = Binlog.Opid.make ~term:1 ~index:1 in
      let e = Binlog.Entry.make ~opid (payload key value) in
      (* flip one bit of the row image (key then value), as stored on disk *)
      let bytes = Bytes.of_string (key ^ value) in
      let bit = bitpos mod (8 * Bytes.length bytes) in
      let i = bit / 8 in
      Bytes.set bytes i (Char.chr (Char.code (Bytes.get bytes i) lxor (1 lsl (bit mod 8))));
      let k = String.length key in
      let rotted =
        payload (Bytes.sub_string bytes 0 k) (Bytes.sub_string bytes k (String.length value))
      in
      not
        (Int32.equal
           (Binlog.Entry.checksum (Binlog.Entry.make ~opid rotted))
           (Binlog.Entry.checksum e)))

(* A transaction's four events cost their headers and fixed bodies
   (GTID 61, table map 31 plus the table name, rows 29 plus the name,
   XID 27), and each row adds exactly its own bytes. *)
let test_event_sizes () =
  let row =
    Binlog.Event.Insert { key = String.make 100 'k'; value = String.make 300 'v' }
  in
  let size ops = Binlog.Event.transaction_size ~table:"t" ~ops in
  Alcotest.(check int) "framing of an empty transaction" 150 (size []);
  Alcotest.(check int) "row bytes" 408 (Binlog.Event.row_op_size row);
  Alcotest.(check int) "one row" (150 + 408) (size [ row ]);
  Alcotest.(check int) "two rows" (150 + 816) (size [ row; row ])

(* ----- log store ----- *)

let test_log_append_and_read () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 10 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  Alcotest.(check int) "last index" 10 (Binlog.Opid.index (Binlog.Log_store.last_opid log));
  (match Binlog.Log_store.entry_at log 5 with
  | Some e -> Alcotest.(check int) "entry index" 5 (Binlog.Entry.index e)
  | None -> Alcotest.fail "missing entry");
  Alcotest.(check int) "entries_from" 3
    (List.length (Binlog.Log_store.entries_from log ~from_index:8 ~max_count:100))

(* Recovery-time corruption scan: a CRC-failing entry mid-log truncates
   everything from it onward (the suffix is untrustworthy) and the
   report carries the pre-truncation tail (the vote-floor fence). *)
let test_log_corruption_scan_truncates_suffix () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 10 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  Alcotest.(check (option pass)) "clean log scans clean" None
    (Binlog.Log_store.scan_for_corruption log);
  Alcotest.(check bool) "corrupt injects" true
    (Binlog.Log_store.corrupt_entry log ~index:6 ~flavor:Binlog.Entry.Body);
  match Binlog.Log_store.scan_for_corruption log with
  | None -> Alcotest.fail "scan missed the corrupt entry"
  | Some r ->
    Alcotest.(check int) "first corrupt index" 6 r.Binlog.Log_store.cr_first_corrupt;
    Alcotest.(check int) "suffix dropped" 5 (List.length r.Binlog.Log_store.cr_dropped);
    Alcotest.(check int) "log truncated to 5" 5 (Binlog.Log_store.last_index log);
    Alcotest.(check int) "pre-truncation tail preserved" 10
      (Binlog.Opid.index r.Binlog.Log_store.cr_pre_truncation_tail);
    Alcotest.(check bool) "detected counted" true (r.Binlog.Log_store.cr_detected >= 1)

let test_log_append_gap_rejected () =
  let log = Binlog.Log_store.create () in
  Binlog.Log_store.append log (entry ~term:1 ~index:1 ());
  Alcotest.check_raises "gap" (Invalid_argument "Log_store.append: index 3 but log ends at 1")
    (fun () -> Binlog.Log_store.append log (entry ~term:1 ~index:3 ()))

let test_log_truncate () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 10 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  let removed = Binlog.Log_store.truncate_from log ~from_index:6 in
  Alcotest.(check int) "removed" 5 (List.length removed);
  Alcotest.(check int) "new last" 5 (Binlog.Opid.index (Binlog.Log_store.last_opid log));
  (* GTIDs of truncated transactions are gone from the log's set (§3.3) *)
  Alcotest.(check bool) "gtid removed" false
    (Binlog.Gtid_set.contains (Binlog.Log_store.gtid_set log) (gtid "srv1" 7));
  Alcotest.(check bool) "kept gtid present" true
    (Binlog.Gtid_set.contains (Binlog.Log_store.gtid_set log) (gtid "srv1" 3));
  (* can append again after truncation *)
  Binlog.Log_store.append log (entry ~term:2 ~index:6 ~gno:100 ());
  Alcotest.(check int) "append after truncate" 6
    (Binlog.Opid.index (Binlog.Log_store.last_opid log))

let test_log_rotation_and_file_list () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 5 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  Binlog.Log_store.rotate log;
  for i = 6 to 8 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  let files = Binlog.Log_store.file_list log in
  Alcotest.(check int) "two files" 2 (List.length files);
  (match files with
  | [ (_, _, n1); (_, _, n2) ] ->
    Alcotest.(check int) "first file entries" 5 n1;
    Alcotest.(check int) "second file entries" 3 n2
  | _ -> Alcotest.fail "unexpected files")

let test_log_purge () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 5 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  Binlog.Log_store.rotate log;
  for i = 6 to 8 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  let second_file =
    match Binlog.Log_store.file_names log with [ _; f2 ] -> f2 | _ -> Alcotest.fail "files"
  in
  Binlog.Log_store.purge_to log ~file:second_file;
  Alcotest.(check int) "one file left" 1 (List.length (Binlog.Log_store.file_names log));
  Alcotest.(check bool) "purged entry gone" true (Binlog.Log_store.entry_at log 3 = None);
  Alcotest.(check bool) "kept entry present" true (Binlog.Log_store.entry_at log 7 <> None);
  Alcotest.(check int) "last index unchanged" 8
    (Binlog.Opid.index (Binlog.Log_store.last_opid log))

(* Purge to a file boundary inside the second 4096-slot storage chunk:
   the emptied slots read as absent through every accessor, the boundary
   term stays answerable, and the recovery scan skips them. *)
let test_log_purge_across_chunks () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 5_000 do
    Binlog.Log_store.append log (entry ~term:(1 + (i / 1_000)) ~index:i ());
    if i = 1_000 || i = 4_500 then Binlog.Log_store.rotate log
  done;
  let third_file =
    match Binlog.Log_store.file_names log with
    | [ _; _; f3 ] -> f3
    | _ -> Alcotest.fail "three files"
  in
  Binlog.Log_store.purge_to log ~file:third_file;
  Alcotest.(check int) "purged below" 4_501 (Binlog.Log_store.purged_below log);
  List.iter
    (fun i ->
      Alcotest.(check bool) (Printf.sprintf "entry_at %d absent" i) true
        (Binlog.Log_store.entry_at log i = None);
      Alcotest.(check bool) (Printf.sprintf "slot %d absent" i) true
        (Binlog.Log_store.slot log i == Binlog.Log_store.absent))
    [ 1; 1_000; 4_095; 4_096; 4_097; 4_499; 4_500 ];
  Alcotest.(check (option int)) "purged term unknown" None (Binlog.Log_store.term_at log 4_499);
  Alcotest.(check int) "purged term_of" (-1) (Binlog.Log_store.term_of log 4_096);
  Alcotest.(check (option int)) "boundary term kept" (Some 5) (Binlog.Log_store.term_at log 4_500);
  Alcotest.(check (option int)) "first kept term" (Some 5) (Binlog.Log_store.term_at log 4_501);
  Alcotest.(check bool) "kept entry present" true
    (Option.map Binlog.Entry.index (Binlog.Log_store.entry_at log 4_501) = Some 4_501);
  Alcotest.(check int) "kept entries" 500 (List.length (Binlog.Log_store.all_entries log));
  Alcotest.(check bool) "clean scan" true (Binlog.Log_store.scan_for_corruption log = None);
  Alcotest.(check bool) "purged slot cannot rot" false
    (Binlog.Log_store.corrupt_entry log ~index:4_200 ~flavor:Binlog.Entry.Header);
  Alcotest.(check bool) "kept slot rots" true
    (Binlog.Log_store.corrupt_entry log ~index:4_800 ~flavor:Binlog.Entry.Body);
  match Binlog.Log_store.scan_for_corruption log with
  | None -> Alcotest.fail "corruption missed"
  | Some r ->
    Alcotest.(check int) "truncated at the rot" 4_800 r.Binlog.Log_store.cr_first_corrupt;
    Alcotest.(check int) "dropped the suffix" 201 (List.length r.Binlog.Log_store.cr_dropped);
    Alcotest.(check int) "last index" 4_799 (Binlog.Log_store.last_index log)

let test_log_switch_mode_rewires_names () =
  let log = Binlog.Log_store.create ~mode:Binlog.Log_store.Relay () in
  Binlog.Log_store.append log (entry ~term:1 ~index:1 ());
  Binlog.Log_store.switch_mode log Binlog.Log_store.Binlog;
  Binlog.Log_store.append log (entry ~term:1 ~index:2 ());
  let names = Binlog.Log_store.file_names log in
  Alcotest.(check bool) "relay file kept" true
    (List.exists (fun n -> String.length n >= 8 && String.sub n 0 8 = "relaylog") names);
  Alcotest.(check bool) "new binlog file" true
    (List.exists (fun n -> String.length n >= 6 && String.sub n 0 6 = "binlog") names);
  (* entries survive the rewiring *)
  Alcotest.(check bool) "entries intact" true (Binlog.Log_store.entry_at log 1 <> None)

(* ----- InstallSnapshot rebase (log compaction §A.1) ----- *)

let test_install_snapshot_retain_tail () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 8 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  (* boundary entry present with matching term: purge-in-place, keep tail *)
  let dropped =
    Binlog.Log_store.install_snapshot log
      ~last:(Binlog.Opid.make ~term:1 ~index:5)
      ~gtids:(Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"snap" ~lo:1 ~hi:5)
  in
  Alcotest.(check int) "no conflicting tail" 0 (List.length dropped);
  Alcotest.(check int) "purged below" 6 (Binlog.Log_store.purged_below log);
  Alcotest.(check int) "boundary opid" 5
    (Binlog.Opid.index (Binlog.Log_store.purge_boundary_opid log));
  Alcotest.(check (option int)) "boundary term answerable" (Some 1)
    (Binlog.Log_store.term_at log 5);
  Alcotest.(check bool) "prefix gone" true (Binlog.Log_store.entry_at log 3 = None);
  Alcotest.(check bool) "tail retained" true (Binlog.Log_store.entry_at log 7 <> None);
  Alcotest.(check int) "tail index unchanged" 8 (Binlog.Log_store.last_index log);
  Alcotest.(check bool) "snapshot gtids merged" true
    (Binlog.Gtid_set.contains (Binlog.Log_store.gtid_set log) (gtid "snap" 3))

let test_install_snapshot_discard_rebase () =
  let log = Binlog.Log_store.create () in
  for i = 1 to 8 do
    Binlog.Log_store.append log (entry ~term:1 ~index:i ())
  done;
  (* boundary unknown locally: the whole log conflicts and is dropped *)
  let gtids = Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"snap" ~lo:1 ~hi:50 in
  let dropped =
    Binlog.Log_store.install_snapshot log ~last:(Binlog.Opid.make ~term:3 ~index:50) ~gtids
  in
  Alcotest.(check int) "whole log dropped" 8 (List.length dropped);
  Alcotest.(check int) "rebased tail" 50 (Binlog.Log_store.last_index log);
  Alcotest.(check int) "purged below" 51 (Binlog.Log_store.purged_below log);
  Alcotest.(check (option int)) "boundary term answerable" (Some 3)
    (Binlog.Log_store.term_at log 50);
  Alcotest.(check string) "gtid set replaced" (Binlog.Gtid_set.to_string gtids)
    (Binlog.Gtid_set.to_string (Binlog.Log_store.gtid_set log));
  (* tailing resumes at the boundary: the next append must be b+1 *)
  Binlog.Log_store.append log (entry ~term:3 ~index:51 ~gno:51 ());
  Alcotest.(check int) "append after rebase" 51
    (Binlog.Opid.index (Binlog.Log_store.last_opid log))

(* Interleave purge_to / truncate_from / rotate / install_snapshot and
   check the compaction bookkeeping never drifts: [purged_below] is
   always [purge_boundary_opid + 1], the boundary term stays answerable,
   purged slots read as absent, and the tail never retreats into the
   purged range. *)
let prop_compaction_invariants =
  let op_gen = QCheck.(list_of_size Gen.(1 -- 40) (pair (0 -- 4) (0 -- 10))) in
  QCheck.Test.make ~name:"compaction invariants under interleaved ops" ~count:300 op_gen
    (fun ops ->
      let log = Binlog.Log_store.create () in
      let next_gno = ref 0 in
      let max_term = ref 1 in
      let append term =
        incr next_gno;
        Binlog.Log_store.append log
          (entry ~term ~index:(Binlog.Log_store.last_index log + 1) ~gno:!next_gno ())
      in
      append 1;
      let check_invariants () =
        let pb = Binlog.Log_store.purged_below log in
        let boundary = Binlog.Log_store.purge_boundary_opid log in
        pb >= 1
        && Binlog.Opid.index boundary = pb - 1
        && Binlog.Log_store.last_index log >= pb - 1
        && (pb = 1
           || Binlog.Log_store.term_at log (pb - 1) = Some (Binlog.Opid.term boundary))
        && Binlog.Log_store.entry_at log (pb - 1) = None
        && Binlog.Log_store.entry_at log (pb / 2) = None
      in
      List.for_all
        (fun (kind, arg) ->
          let last = Binlog.Log_store.last_index log in
          let pb = Binlog.Log_store.purged_below log in
          (match kind with
          | 0 -> append !max_term
          | 1 -> Binlog.Log_store.rotate log
          | 2 ->
            (* purge to a file picked from the current list: everything
               strictly older is dropped *)
            let files = Binlog.Log_store.file_names log in
            let file = List.nth files (arg mod List.length files) in
            Binlog.Log_store.purge_to log ~file
          | 3 ->
            (* truncate somewhere in the un-purged range *)
            let from_index = pb + (arg mod (last - pb + 2)) in
            ignore (Binlog.Log_store.truncate_from log ~from_index)
          | _ ->
            (* install: half the time at a held index with its real term
               (retain), otherwise past the tail at a new term (discard) *)
            if arg mod 2 = 0 && last >= pb then begin
              let b = pb + (arg mod (last - pb + 1)) in
              match Binlog.Log_store.term_at log b with
              | Some term ->
                ignore
                  (Binlog.Log_store.install_snapshot log
                     ~last:(Binlog.Opid.make ~term ~index:b)
                     ~gtids:Binlog.Gtid_set.empty)
              | None -> ()
            end
            else begin
              let b = last + 1 + (arg mod 5) in
              let term = !max_term + 1 in
              max_term := term;
              ignore
                (Binlog.Log_store.install_snapshot log
                   ~last:(Binlog.Opid.make ~term ~index:b)
                   ~gtids:
                     (Binlog.Gtid_set.add_interval Binlog.Gtid_set.empty ~source:"snap"
                        ~lo:1 ~hi:b))
            end);
          check_invariants ())
        ops
      &&
      (* the store still extends: one more append at the tail goes in *)
      let tail = Binlog.Log_store.last_index log in
      max_term := !max_term + 1;
      append !max_term;
      Binlog.Log_store.last_index log = tail + 1)

let test_log_term_regression_rejected () =
  let log = Binlog.Log_store.create () in
  Binlog.Log_store.append log (entry ~term:3 ~index:1 ());
  Alcotest.check_raises "term regression"
    (Invalid_argument "Log_store.append: term regression") (fun () ->
      Binlog.Log_store.append log (entry ~term:2 ~index:2 ()))

let suites =
  [
    ("binlog.opid", [ Alcotest.test_case "ordering" `Quick test_opid_ordering ]);
    ( "binlog.gtid_set",
      [
        Alcotest.test_case "add/contains" `Quick test_gtid_set_add_contains;
        Alcotest.test_case "interval merge" `Quick test_gtid_set_interval_merge;
        Alcotest.test_case "remove splits" `Quick test_gtid_set_remove_splits;
        Alcotest.test_case "union/subset" `Quick test_gtid_set_union_subset;
        Alcotest.test_case "max gno" `Quick test_gtid_set_max_gno;
        QCheck_alcotest.to_alcotest prop_gtid_set_contains_all_added;
        QCheck_alcotest.to_alcotest prop_gtid_set_cardinal_matches;
        QCheck_alcotest.to_alcotest prop_gtid_set_remove_then_absent;
        QCheck_alcotest.to_alcotest prop_gtid_set_union_commutes;
      ] );
    ( "binlog.entry",
      [
        Alcotest.test_case "crc32 known vector" `Quick test_crc32_known_value;
        Alcotest.test_case "checksum roundtrip" `Quick test_entry_checksum_roundtrip;
        Alcotest.test_case "entry size" `Quick test_entry_size_positive;
        Alcotest.test_case "event sizes" `Quick test_event_sizes;
        QCheck_alcotest.to_alcotest prop_sliced_crc_matches_bytewise;
        Alcotest.test_case "every field mutation detected" `Quick
          test_every_field_mutation_detected;
        Alcotest.test_case "corruption detected per event variant" `Quick
          test_corruption_detected_every_event_variant;
        Alcotest.test_case "corruption detected per payload kind" `Quick
          test_corruption_detected_non_txn_payloads;
        QCheck_alcotest.to_alcotest prop_single_bit_flip_detected;
        Alcotest.test_case "xid checksums as int64" `Quick test_xid_checksums;
        Alcotest.test_case "retained layout words" `Quick test_entry_layout_words;
        Alcotest.test_case "verify and deps" `Quick test_entry_verify_and_deps;
        Alcotest.test_case "body rot keeps the rows" `Quick test_body_rot_keeps_rows;
      ] );
    ( "binlog.framing",
      [ Alcotest.test_case "production entries pinned" `Quick test_framing_pins ] );
    ( "binlog.log_store",
      [
        Alcotest.test_case "append and read" `Quick test_log_append_and_read;
        Alcotest.test_case "corruption scan truncates suffix" `Quick
          test_log_corruption_scan_truncates_suffix;
        Alcotest.test_case "gap rejected" `Quick test_log_append_gap_rejected;
        Alcotest.test_case "truncate" `Quick test_log_truncate;
        Alcotest.test_case "rotation and SHOW BINARY LOGS" `Quick test_log_rotation_and_file_list;
        Alcotest.test_case "purge" `Quick test_log_purge;
        Alcotest.test_case "purge inside chunk 1" `Quick test_log_purge_across_chunks;
        Alcotest.test_case "binlog/relay rewiring" `Quick test_log_switch_mode_rewires_names;
        Alcotest.test_case "term regression rejected" `Quick test_log_term_regression_rejected;
        Alcotest.test_case "install snapshot retains tail" `Quick
          test_install_snapshot_retain_tail;
        Alcotest.test_case "install snapshot discard-rebases" `Quick
          test_install_snapshot_discard_rebase;
        QCheck_alcotest.to_alcotest prop_compaction_invariants;
      ] );
  ]
