(* Downstream consumers (§3, §5.1): CDC tailers and the backup/restore
   service that the binlog format was preserved for. *)

let ms = Helpers.ms
let s = Helpers.s

(* ----- CDC ----- *)

let test_cdc_streams_committed_txns () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let cdc = Downstream.Cdc.start ~source:"mysql2" cluster in
  ignore (Helpers.write_n cluster 20);
  Myraft.Cluster.run_for cluster (2.0 *. s);
  Downstream.Cdc.stop cdc;
  Alcotest.(check int) "all txns streamed" 20 (Downstream.Cdc.record_count cdc);
  (match Downstream.Cdc.validate cdc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "stream invalid: %s" e);
  (* stream carries GTIDs and the row payloads *)
  let first = List.hd (Downstream.Cdc.records cdc) in
  Alcotest.(check string) "gtid source" "mysql1"
    (Binlog.Gtid.source first.Downstream.Cdc.gtid);
  Alcotest.(check bool) "row ops present" true (first.Downstream.Cdc.ops <> [])

let test_cdc_survives_failover_no_dups () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let cdc = Downstream.Cdc.start ~source:"mysql1" cluster in
  ignore (Helpers.write_n cluster 10);
  Myraft.Cluster.run_for cluster (1.0 *. s);
  (* the CDC source (and primary) dies: tailer must re-attach and the
     stream must stay exactly-once *)
  Myraft.Cluster.crash cluster "mysql1";
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         match Myraft.Cluster.primary cluster with
         | Some srv -> Myraft.Server.id srv <> "mysql1"
         | None -> false));
  ignore (Helpers.write_n ~prefix:"post" cluster 10);
  Myraft.Cluster.run_for cluster (2.0 *. s);
  Downstream.Cdc.stop cdc;
  Alcotest.(check bool) "re-attached" true (Downstream.Cdc.reattachments cdc >= 1);
  Alcotest.(check bool) "source switched" true (Downstream.Cdc.source cdc <> "mysql1");
  Alcotest.(check int) "exactly-once across failover" 20 (Downstream.Cdc.record_count cdc);
  match Downstream.Cdc.validate cdc with
  | Ok _ -> ()
  | Error e -> Alcotest.failf "stream invalid: %s" e

let test_cdc_never_streams_truncated_txn () =
  (* Recovery case 2 (§A.2): a transaction that reaches only the
     isolated primary's binlog is later truncated — CDC, reading only
     below the commit marker, must never have streamed it. *)
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let cdc = Downstream.Cdc.start ~source:"mysql1" cluster in
  ignore (Helpers.write_n cluster 3);
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let mysql1 = Option.get (Myraft.Cluster.server cluster "mysql1") in
  Myraft.Cluster.isolate cluster "mysql1";
  Myraft.Server.submit_write mysql1 ~table:"t"
    ~ops:[ Binlog.Event.Insert { key = "stranded"; value = "v" } ]
    ~reply:(fun _ -> ());
  Myraft.Cluster.run_for cluster (300.0 *. ms);
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         match Myraft.Cluster.primary cluster with
         | Some srv -> Myraft.Server.id srv <> "mysql1"
         | None -> false));
  Myraft.Cluster.heal cluster "mysql1";
  let fresh_committed = Helpers.write_n ~prefix:"fresh" cluster 3 in
  Myraft.Cluster.run_for cluster (3.0 *. s);
  Downstream.Cdc.stop cdc;
  (* the stranded gtid (mysql1:4) must not be in the stream *)
  Alcotest.(check bool) "stranded txn not streamed" false
    (Binlog.Gtid_set.contains
       (Downstream.Cdc.seen_gtids cdc)
       (Binlog.Gtid.make ~source:"mysql1" ~gno:4));
  match Downstream.Cdc.validate cdc with
  | Ok n -> Alcotest.(check int) "all committed txns streamed" (3 + fresh_committed) n
  | Error e -> Alcotest.failf "stream invalid: %s" e

(* ----- backup / restore ----- *)

let test_backup_roundtrip () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  ignore (Helpers.write_n cluster 15);
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let replica = Option.get (Myraft.Cluster.server cluster "mysql2") in
  match Downstream.Backup.take replica with
  | Error e -> Alcotest.failf "take: %s" e
  | Ok backup ->
    Alcotest.(check bool) "covers the txns" true
      (Downstream.Backup.entry_count backup >= 15);
    Alcotest.(check bool) "gtids recorded" true
      (Binlog.Gtid_set.contains
         (Downstream.Backup.gtid_executed backup)
         (Binlog.Gtid.make ~source:"mysql1" ~gno:15));
    (* consistency check against another live member *)
    (match Downstream.Backup.verify_against backup
             (Option.get (Myraft.Cluster.server cluster "mysql3"))
     with
    | Ok () -> ()
    | Error e -> Alcotest.failf "verify: %s" e)

let test_restore_seeds_fresh_server () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  ignore (Helpers.write_n cluster 10);
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let backup =
    Result.get_ok (Downstream.Backup.take (Option.get (Myraft.Cluster.server cluster "mysql2")))
  in
  (* a brand-new node outside the ring, restored from the backup *)
  Myraft.Cluster.add_server cluster (Myraft.Cluster.mysql "mysql9" "r1");
  let fresh = Option.get (Myraft.Cluster.server cluster "mysql9") in
  (match Downstream.Backup.restore_into_server backup fresh with
  | Ok () -> ()
  | Error e -> Alcotest.failf "restore: %s" e);
  Alcotest.(check (option string)) "row restored" (Some "v")
    (Storage.Engine.get (Myraft.Server.storage fresh) ~table:"t" ~key:"k7");
  Alcotest.(check int) "log position restored"
    (Binlog.Opid.index (Downstream.Backup.position backup))
    (Binlog.Log_store.last_index (Myraft.Server.log fresh));
  (* restoring twice is rejected *)
  match Downstream.Backup.restore_into_server backup fresh with
  | Error _ -> ()
  | Ok () -> Alcotest.fail "double restore accepted"

let test_replace_member_after_purge_needs_backup () =
  (* Purge the ring's history, then replace a member: without a backup
     the newcomer can never backfill; seeded from one, it catches up. *)
  let params = { Myraft.Params.default with Myraft.Params.max_binlog_bytes = 2_048 } in
  let cluster = Helpers.bootstrapped ~params ~members:(Myraft.Cluster.small_members ()) () in
  let janitor = Control.Automation.start_binlog_janitor ~keep_files:2 cluster in
  for batch = 0 to 4 do
    ignore (Helpers.write_n ~prefix:(Printf.sprintf "b%d-" batch) cluster 30);
    Myraft.Cluster.run_for cluster (3.0 *. s)
  done;
  Control.Automation.stop_janitor janitor;
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  Alcotest.(check bool) "history was purged" true
    (Binlog.Log_store.purged_below (Myraft.Server.log primary) > 1);
  (* take the backup from a member with full history: the replica that
     never purged *)
  let backup =
    Result.get_ok (Downstream.Backup.take (Option.get (Myraft.Cluster.server cluster "mysql2")))
  in
  Myraft.Cluster.crash cluster "mysql3";
  Myraft.Cluster.run_for cluster (2.0 *. s);
  (match
     Control.Automation.replace_member ~backup cluster ~dead:"mysql3"
       ~replacement_id:"mysql4"
   with
  | Ok r -> Alcotest.(check string) "added" "mysql4" r.Control.Automation.added
  | Error e -> Alcotest.failf "replace with backup: %s" e);
  (* the newcomer serves reads of old data and keeps up with new writes *)
  let fresh = Option.get (Myraft.Cluster.server cluster "mysql4") in
  Alcotest.(check (option string)) "old row present" (Some "v")
    (Storage.Engine.get (Myraft.Server.storage fresh) ~table:"t" ~key:"b0-3");
  ignore (Helpers.write_n ~prefix:"after" cluster 5);
  Myraft.Cluster.run_for cluster (3.0 *. s);
  Alcotest.(check (option string)) "new row replicated" (Some "v")
    (Storage.Engine.get (Myraft.Server.storage fresh) ~table:"t" ~key:"after3")

let suites =
  [
    ( "downstream.cdc",
      [
        Alcotest.test_case "streams committed txns" `Quick test_cdc_streams_committed_txns;
        Alcotest.test_case "exactly-once across failover" `Quick
          test_cdc_survives_failover_no_dups;
        Alcotest.test_case "never streams truncated txns" `Quick
          test_cdc_never_streams_truncated_txn;
      ] );
    ( "downstream.backup",
      [
        Alcotest.test_case "take + verify roundtrip" `Quick test_backup_roundtrip;
        Alcotest.test_case "restore seeds a fresh server" `Quick
          test_restore_seeds_fresh_server;
        Alcotest.test_case "member replacement after purge" `Quick
          test_replace_member_after_purge_needs_backup;
      ] );
  ]
