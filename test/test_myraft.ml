(* Integration tests of the full MyRaft stack: MySQL servers + logtailers
   on a simulated network — write path, promotion/demotion orchestration,
   failover, crash recovery (§A.2), rotation, and availability. *)

let ms = Helpers.ms
let s = Helpers.s

let small () = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) ()

let single_region () =
  Helpers.bootstrapped ~members:(Myraft.Cluster.single_region_members ()) ()

let engines_converged cluster =
  let servers = Myraft.Cluster.servers cluster in
  let live = List.filter (fun srv -> not (Myraft.Server.is_crashed srv)) servers in
  match live with
  | [] -> false
  | first :: rest ->
    let c0 = Storage.Engine.committed_count (Myraft.Server.storage first) in
    let k0 = Storage.Engine.checksum (Myraft.Server.storage first) in
    List.for_all
      (fun srv ->
        Storage.Engine.committed_count (Myraft.Server.storage srv) = c0
        && Int32.equal (Storage.Engine.checksum (Myraft.Server.storage srv)) k0)
      rest
    && c0 > 0

let wait_converged ?(timeout = 30.0 *. s) cluster =
  Myraft.Cluster.run_until cluster ~timeout (fun () -> engines_converged cluster)

(* ----- bootstrap and writes ----- *)

let test_bootstrap_elects_writable_primary () =
  let cluster = small () in
  match Myraft.Cluster.primary cluster with
  | Some srv ->
    Alcotest.(check string) "mysql1 is primary" "mysql1" (Myraft.Server.id srv);
    Alcotest.(check bool) "writes enabled" true (Myraft.Server.writes_enabled srv);
    Alcotest.(check (option string)) "discovery published" (Some "mysql1")
      (Myraft.Service_discovery.primary_of (Myraft.Cluster.discovery cluster)
         ~replicaset:"rs-test")
  | None -> Alcotest.fail "no primary after bootstrap"

let test_write_commits_and_replicates () =
  let cluster = small () in
  Helpers.check_ok "write" (Helpers.direct_write cluster ~key:"hello" ~value:"world");
  (* data visible on the primary's engine *)
  (match Myraft.Cluster.primary cluster with
  | Some srv ->
    Alcotest.(check (option string)) "row on primary" (Some "world")
      (Storage.Engine.get (Myraft.Server.storage srv) ~table:"t" ~key:"hello")
  | None -> Alcotest.fail "no primary");
  Alcotest.(check bool) "all engines converge" true (wait_converged cluster);
  List.iter
    (fun srv ->
      Alcotest.(check (option string))
        (Myraft.Server.id srv ^ " has the row")
        (Some "world")
        (Storage.Engine.get (Myraft.Server.storage srv) ~table:"t" ~key:"hello"))
    (Myraft.Cluster.servers cluster)

let test_many_writes_converge () =
  let cluster = small () in
  let committed = Helpers.write_n cluster 50 in
  Alcotest.(check int) "all committed" 50 committed;
  Alcotest.(check bool) "engines converge" true (wait_converged cluster);
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  Alcotest.(check int) "row count" 51 (* 50 + bootstrap probe-free *)
    (Storage.Engine.row_count (Myraft.Server.storage primary) ~table:"t" + 1)

let test_replica_rejects_writes () =
  let cluster = small () in
  let replica =
    List.find
      (fun srv -> Myraft.Server.role srv = Myraft.Server.Replica)
      (Myraft.Cluster.servers cluster)
  in
  let outcome = ref None in
  Myraft.Server.submit_write replica ~table:"t"
    ~ops:[ Binlog.Event.Insert { key = "x"; value = "y" } ]
    ~reply:(fun o -> outcome := Some o);
  Myraft.Cluster.run_for cluster (100.0 *. ms);
  match !outcome with
  | Some (Myraft.Wire.Rejected _) -> ()
  | _ -> Alcotest.fail "replica accepted a write"

let test_gtids_preserved () =
  let cluster = small () in
  ignore (Helpers.write_n cluster 5);
  Alcotest.(check bool) "converged" true (wait_converged cluster);
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  let set = Myraft.Server.gtid_executed primary in
  (* 5 transactions from mysql1 -> mysql1:1-5 *)
  Alcotest.(check bool) "gtid range present" true
    (Binlog.Gtid_set.contains set (Binlog.Gtid.make ~source:"mysql1" ~gno:5));
  Alcotest.(check int) "exactly five" 5 (Binlog.Gtid_set.cardinal set)

let test_opid_stamped_on_transactions () =
  let cluster = small () in
  ignore (Helpers.write_n cluster 3);
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  let entries = Binlog.Log_store.all_entries (Myraft.Server.log primary) in
  let txns = List.filter Binlog.Entry.is_transaction entries in
  Alcotest.(check int) "three transactions in binlog" 3 (List.length txns);
  List.iter
    (fun e ->
      Alcotest.(check bool) "valid opid" true (Binlog.Entry.index e > 0);
      Alcotest.(check bool) "checksum verifies" true (Binlog.Entry.verify e))
    txns

(* ----- promotion / demotion ----- *)

let test_graceful_promotion () =
  let cluster = small () in
  ignore (Helpers.write_n cluster 5);
  Helpers.check_ok "transfer" (Myraft.Cluster.transfer_leadership cluster ~target:"mysql2");
  let ok =
    Myraft.Cluster.run_until cluster ~timeout:(20.0 *. s) (fun () ->
        match Myraft.Cluster.primary cluster with
        | Some srv -> Myraft.Server.id srv = "mysql2"
        | None -> false)
  in
  Alcotest.(check bool) "mysql2 promoted" true ok;
  (* the old primary demoted and its server-side counters reflect it *)
  let old_primary = Option.get (Myraft.Cluster.server cluster "mysql1") in
  Alcotest.(check bool) "mysql1 demoted" true
    (Myraft.Server.role old_primary = Myraft.Server.Replica);
  Alcotest.(check int) "demotion count" 1
    (Obs.Metrics.counter_of
       (Obs.Metrics.snapshot (Myraft.Server.metrics old_primary))
       "server.demotions");
  (* writes work on the new primary and still replicate everywhere *)
  Helpers.check_ok "write after promotion"
    (Helpers.direct_write cluster ~key:"after" ~value:"promotion");
  Alcotest.(check bool) "converged" true (wait_converged cluster)

let test_new_primary_uses_own_gtid_source () =
  let cluster = small () in
  ignore (Helpers.write_n cluster 3);
  Helpers.check_ok "transfer" (Myraft.Cluster.transfer_leadership cluster ~target:"mysql2");
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(20.0 *. s) (fun () ->
         match Myraft.Cluster.primary cluster with
         | Some srv -> Myraft.Server.id srv = "mysql2"
         | None -> false));
  Helpers.check_ok "write" (Helpers.direct_write cluster ~key:"k" ~value:"v");
  let p = Option.get (Myraft.Cluster.primary cluster) in
  let set = Myraft.Server.gtid_executed p in
  Alcotest.(check bool) "old source gtids retained" true
    (Binlog.Gtid_set.contains set (Binlog.Gtid.make ~source:"mysql1" ~gno:3));
  Alcotest.(check bool) "new source gtid minted" true
    (Binlog.Gtid_set.contains set (Binlog.Gtid.make ~source:"mysql2" ~gno:1))

(* ----- failover ----- *)

let test_failover_after_primary_crash () =
  let cluster = small () in
  ignore (Helpers.write_n cluster 5);
  Myraft.Cluster.crash cluster "mysql1";
  let ok =
    Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
        match Myraft.Cluster.primary cluster with
        | Some srv -> Myraft.Server.id srv <> "mysql1"
        | None -> false)
  in
  Alcotest.(check bool) "new primary after crash" true ok;
  Helpers.check_ok "write after failover"
    (Helpers.direct_write cluster ~key:"post-failover" ~value:"ok")

let test_crashed_primary_rejoins_as_replica () =
  let cluster = small () in
  ignore (Helpers.write_n cluster 5);
  Myraft.Cluster.crash cluster "mysql1";
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         Myraft.Cluster.primary cluster <> None
         && Myraft.Server.id (Option.get (Myraft.Cluster.primary cluster)) <> "mysql1"));
  ignore (Helpers.write_n ~prefix:"while-down" cluster 5);
  Myraft.Cluster.restart cluster "mysql1";
  let mysql1 = Option.get (Myraft.Cluster.server cluster "mysql1") in
  let ok =
    Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
        Myraft.Server.role mysql1 = Myraft.Server.Replica && engines_converged cluster)
  in
  Alcotest.(check bool) "rejoined as consistent replica" true ok

let test_witness_hands_off_leadership () =
  (* Single region with two logtailers: on primary crash, a logtailer
     (longest log) may win; it must transfer to the MySQL server. *)
  let cluster = single_region () in
  ignore (Helpers.write_n cluster 5);
  Myraft.Cluster.crash cluster "mysql1";
  let ok =
    Myraft.Cluster.run_until cluster ~timeout:(40.0 *. s) (fun () ->
        match Myraft.Cluster.primary cluster with
        | Some srv -> Myraft.Server.id srv = "mysql2"
        | None -> false)
  in
  Alcotest.(check bool) "a MySQL server ends up primary" true ok;
  Helpers.check_ok "write" (Helpers.direct_write cluster ~key:"w" ~value:"x")

(* ----- crash recovery (§A.2) ----- *)

let test_recovery_case2_unreplicated_txn_truncated () =
  let cluster = small () in
  ignore (Helpers.write_n cluster 3);
  Alcotest.(check bool) "converged" true (wait_converged cluster);
  (* Isolate the primary, let a write reach only its binlog, then crash. *)
  let mysql1 = Option.get (Myraft.Cluster.server cluster "mysql1") in
  Myraft.Cluster.isolate cluster "mysql1";
  let stranded = ref None in
  Myraft.Server.submit_write mysql1 ~table:"t"
    ~ops:[ Binlog.Event.Insert { key = "stranded"; value = "v" } ]
    ~reply:(fun o -> stranded := Some o);
  Myraft.Cluster.run_for cluster (300.0 *. ms);
  Alcotest.(check bool) "txn is in isolated primary's binlog" true
    (Binlog.Gtid_set.contains
       (Binlog.Log_store.gtid_set (Myraft.Server.log mysql1))
       (Binlog.Gtid.make ~source:"mysql1" ~gno:4));
  (* new leader elected meanwhile; old primary crashes and rejoins *)
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         match Myraft.Cluster.primary cluster with
         | Some srv -> Myraft.Server.id srv <> "mysql1"
         | None -> false));
  Myraft.Cluster.heal cluster "mysql1";
  Myraft.Cluster.crash cluster "mysql1";
  Myraft.Cluster.restart cluster "mysql1";
  ignore (Helpers.write_n ~prefix:"fresh" cluster 2);
  let ok =
    Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
        engines_converged cluster)
  in
  Alcotest.(check bool) "converged after recovery" true ok;
  (* the stranded transaction was truncated from the rejoined log and its
     GTID removed (§3.3 step 4 / §A.2 case 2) *)
  Alcotest.(check bool) "stranded gtid gone from log" false
    (Binlog.Gtid_set.contains
       (Binlog.Log_store.gtid_set (Myraft.Server.log mysql1))
       (Binlog.Gtid.make ~source:"mysql1" ~gno:4));
  Alcotest.(check (option string)) "stranded row never committed" None
    (Storage.Engine.get (Myraft.Server.storage mysql1) ~table:"t" ~key:"stranded")

let test_recovery_case1_prepared_rolled_back () =
  (* A transaction prepared in the engine but never written to the binlog
     is rolled back on restart with no reconciliation (§A.2 case 1). *)
  let cluster = small () in
  ignore (Helpers.write_n cluster 2);
  let mysql1 = Option.get (Myraft.Cluster.server cluster "mysql1") in
  ignore
    (Storage.Engine.prepare (Myraft.Server.storage mysql1)
       ~gtid:(Binlog.Gtid.make ~source:"mysql1" ~gno:99)
       ~table:"t"
       ~ops:[ Binlog.Event.Insert { key = "ghost"; value = "boo" } ]);
  Myraft.Cluster.crash cluster "mysql1";
  Myraft.Cluster.restart cluster "mysql1";
  Myraft.Cluster.run_for cluster s;
  Alcotest.(check (option string)) "ghost rolled back" None
    (Storage.Engine.get (Myraft.Server.storage mysql1) ~table:"t" ~key:"ghost");
  Alcotest.(check int) "no prepared txns" 0
    (List.length (Storage.Engine.prepared_gtids (Myraft.Server.storage mysql1)))

let test_recovery_case3_replicated_txn_reapplied () =
  (* §A.2 case 3: the transaction reached the next leader's log but the
     old primary crashed before engine commit — after recovery rolls the
     prepared copy back, the applier re-applies it from scratch and no
     truncation happens (the logs match). *)
  let cluster = small () in
  ignore (Helpers.write_n cluster 3);
  Alcotest.(check bool) "converged" true (wait_converged cluster);
  let mysql1 = Option.get (Myraft.Cluster.server cluster "mysql1") in
  (* submit a write and crash the primary at a moment when the entry has
     been flushed + replicated but not yet engine-committed: cut the
     reply path by crashing right after the flush window *)
  Myraft.Server.submit_write mysql1 ~table:"t"
    ~ops:[ Binlog.Event.Insert { key = "case3"; value = "v" } ]
    ~reply:(fun _ -> ());
  (* flush ~0.2ms, in-region replication ~0.2ms; crash shortly after the
     entry is out the door but before the commit stage finishes *)
  Myraft.Cluster.run_for cluster (400.0 *. Sim.Engine.us);
  let in_own_log =
    Binlog.Gtid_set.contains
      (Binlog.Log_store.gtid_set (Myraft.Server.log mysql1))
      (Binlog.Gtid.make ~source:"mysql1" ~gno:4)
  in
  Myraft.Cluster.crash cluster "mysql1";
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         match Myraft.Cluster.primary cluster with
         | Some srv -> Myraft.Server.id srv <> "mysql1"
         | None -> false));
  Myraft.Cluster.restart cluster "mysql1";
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         engines_converged cluster));
  if in_own_log then begin
    (* the entry survived into the new ring: no truncation on mysql1 and
       the row was re-applied from scratch by the applier *)
    Alcotest.(check int) "no truncations on mysql1" 0
      (Obs.Metrics.counter_value
         (Obs.Metrics.counter (Myraft.Server.metrics mysql1) "binlog.entries_truncated"));
    Alcotest.(check (option string)) "row applied after recovery" (Some "v")
      (Storage.Engine.get (Myraft.Server.storage mysql1) ~table:"t" ~key:"case3")
  end

(* ----- rotation / purge (§A.1) ----- *)

let test_rotate_replicated () =
  let cluster = small () in
  ignore (Helpers.write_n cluster 3);
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  Helpers.check_ok "flush" (Myraft.Server.flush_binary_logs primary);
  ignore (Helpers.write_n ~prefix:"post-rotate" cluster 3);
  Alcotest.(check bool) "converged" true (wait_converged cluster);
  (* every live server's log rotated (≥ 2 files) because the rotate event
     itself is replicated (§A.1) *)
  List.iter
    (fun srv ->
      let files = Binlog.Log_store.file_names (Myraft.Server.log srv) in
      Alcotest.(check bool)
        (Myraft.Server.id srv ^ " rotated")
        true
        (List.length files >= 2))
    (Myraft.Cluster.servers cluster)

let test_purge_respects_watermarks () =
  let cluster = small () in
  ignore (Helpers.write_n cluster 5);
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  Helpers.check_ok "flush" (Myraft.Server.flush_binary_logs primary);
  ignore (Helpers.write_n ~prefix:"second-file" cluster 5);
  Alcotest.(check bool) "converged" true (wait_converged cluster);
  Myraft.Cluster.run_for cluster (2.0 *. s) (* let acks settle *);
  let purged = Myraft.Server.purge_binary_logs primary in
  Alcotest.(check bool) "purged the shipped file" true (purged >= 1);
  (* log tail still intact *)
  Helpers.check_ok "write after purge"
    (Helpers.direct_write cluster ~key:"after-purge" ~value:"v")

let test_purge_blocked_by_lagging_region () =
  (* Two regions; remote follower crashed => nothing shipped out of its
     region => region watermark heuristic must block purging. *)
  let members =
    [
      Myraft.Cluster.mysql "mysql1" "r1";
      Myraft.Cluster.logtailer "lt1a" "r1";
      Myraft.Cluster.logtailer "lt1b" "r1";
      Myraft.Cluster.mysql "mysql2" "r2";
    ]
  in
  let cluster = Helpers.bootstrapped ~members () in
  (* mysql2 dies right after bootstrap: nothing past the bootstrap no-op
     ever ships to r2, so files holding the later writes must survive
     any purge attempt. *)
  Myraft.Cluster.crash cluster "mysql2";
  ignore (Helpers.write_n cluster 5);
  let primary = Option.get (Myraft.Cluster.primary cluster) in
  let first_write_index =
    Binlog.Opid.index (Binlog.Log_store.last_opid (Myraft.Server.log primary)) - 4
  in
  Helpers.check_ok "flush" (Myraft.Server.flush_binary_logs primary);
  ignore (Helpers.write_n ~prefix:"more" cluster 5);
  Myraft.Cluster.run_for cluster (2.0 *. s);
  ignore (Myraft.Server.purge_binary_logs primary);
  Alcotest.(check bool) "unshipped entries survive purge" true
    (Binlog.Log_store.entry_at (Myraft.Server.log primary) first_write_index <> None);
  Alcotest.(check bool) "safe purge index below unshipped writes" true
    (Raft.Node.safe_purge_index (Myraft.Server.raft primary) < first_write_index)

(* ----- availability probe ----- *)

let test_steady_state_no_downtime () =
  let cluster = small () in
  let probe = Myraft.Availability.start cluster ~client_id:"probe0" in
  let t0 = Myraft.Cluster.now cluster in
  Myraft.Cluster.run_for cluster (5.0 *. s);
  let t1 = Myraft.Cluster.now cluster in
  Myraft.Availability.stop probe;
  Alcotest.(check bool) "probes succeeded" true (Myraft.Availability.successes probe > 100);
  let downtime = Myraft.Availability.max_downtime probe ~start_time:t0 ~end_time:t1 in
  if downtime > 200.0 *. ms then
    Alcotest.failf "unexpected steady-state downtime: %.0fus" downtime

let test_failover_downtime_measured () =
  let cluster = small () in
  let probe = Myraft.Availability.start cluster ~client_id:"probe0" in
  Myraft.Cluster.run_for cluster (2.0 *. s);
  let crash_at = Myraft.Cluster.now cluster in
  Myraft.Cluster.crash cluster "mysql1";
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         match Myraft.Cluster.primary cluster with
         | Some srv -> Myraft.Server.id srv <> "mysql1"
         | None -> false));
  Myraft.Cluster.run_for cluster (5.0 *. s);
  let end_at = Myraft.Cluster.now cluster in
  Myraft.Availability.stop probe;
  let downtime = Myraft.Availability.max_downtime probe ~start_time:crash_at ~end_time:end_at in
  (* Raft failover: ~1.5-2s detection + election + promotion; well under
     the prior setup's ~60s. *)
  if downtime < 500.0 *. ms || downtime > 15.0 *. s then
    Alcotest.failf "implausible failover downtime: %.0fms" (downtime /. ms)

(* ----- Table 1 roles ----- *)

let test_roles_table () =
  let rendered = Myraft.Roles.render () in
  Alcotest.(check bool) "mentions witness" true
    (Helpers.contains rendered "Witness");
  Alcotest.(check bool) "mentions semi-sync acker" true
    (Helpers.contains rendered "Semi-Sync Acker")

(* ----- allocation pins: the commit pipeline ----- *)

let row_write ~client ~write_id =
  Myraft.Wire.Write_request
    {
      Myraft.Wire.write_id;
      table = "sbtest";
      ops = [ Binlog.Event.Insert { key = Printf.sprintf "row-%d" write_id; value = "v" } ];
      client;
    }

(* Mean words per committed one-row write on a primary whose data
   quorum is its two in-region logtailers: everything the simulation
   allocates from the Write_request's arrival to the Write_reply, the
   quorum's appends and acks and the network's events included.  One
   write is in flight at a time, after 200 writes of warm-up. *)
let primary_write_words () =
  let cluster =
    Helpers.bootstrapped
      ~members:
        Myraft.Cluster.
          [ mysql "mysql1" "r1"; logtailer "lt1a" "r1"; logtailer "lt1b" "r1" ]
      ()
  in
  let committed = ref 0 in
  Myraft.Cluster.register_client cluster ~id:"c1" ~region:"r1" ~handler:(fun ~src:_ msg ->
      match msg with
      | Myraft.Wire.Write_reply { outcome = Myraft.Wire.Committed _; _ } -> incr committed
      | _ -> ());
  let warmup = 200 and n = 1_000 in
  let requests = Array.init (warmup + n) (fun i -> row_write ~client:"c1" ~write_id:(i + 1)) in
  let write i =
    Myraft.Cluster.send_from_client cluster ~client:"c1" ~dst:"mysql1" requests.(i);
    while !committed <= i do
      Myraft.Cluster.run_for cluster (50.0 *. Sim.Engine.us)
    done
  in
  for i = 0 to warmup - 1 do
    write i
  done;
  let words =
    Kit.Alloc.minor_words (fun () ->
        for i = warmup to warmup + n - 1 do
          write i
        done)
  in
  Alcotest.(check int) "every write committed" (warmup + n) !committed;
  words /. float_of_int n

(* Mean words per relay-log transaction a replica applies: a replica
   server fed one-row transactions [batch] to an AppendEntries, each AE
   carrying the commit index of the one before, from the AE's arrival
   through the follower append, the applier, the pipeline and the engine
   commit.  [warmup] AEs, then [n] measured, each given [step] of
   virtual time. *)
let replica_apply_words ~batch ~warmup ~n ~step =
  let engine = Sim.Engine.create ~seed:1 () in
  let trace = Sim.Trace.create engine in
  let member id = { Raft.Types.id; region = "r1"; voter = true; kind = Raft.Types.Mysql_server } in
  let server =
    Myraft.Server.create ~engine ~id:"mysql2" ~region:"r1" ~replicaset:"rs-alloc"
      ~send:(fun ~dst:_ _ -> ())
      ~discovery:(Myraft.Service_discovery.create engine)
      ~params:Myraft.Params.default
      ~initial_config:{ Raft.Types.members = [ member "mysql1"; member "mysql2"; member "mysql3" ] }
      ~trace ()
  in
  let entry index =
    let gtid = Binlog.Gtid.make ~source:"mysql1" ~gno:index and table = "sbtest" in
    let entry =
      Binlog.Entry.make
        ~opid:(Binlog.Opid.make ~term:1 ~index)
        (Binlog.Entry.Transaction
           {
             gtid;
             table;
             ops =
               [
                 Binlog.Event.Insert { key = Printf.sprintf "row-%d" index; value = "v" };
               ];
             xid = index;
           })
    in
    Binlog.Entry.set_deps entry ~last_committed:0;
    entry
  in
  let ae first =
    let ae =
      Kit.Bare.append_entries ~leader:"mysql1" ~term:1
        ~prev:((if first = 1 then 0 else 1), first - 1)
        ~commit:(first - 1) []
    in
    Myraft.Wire.Raft_msg
      (Raft.Message.Append_entries
         {
           ae with
           Raft.Message.payload =
             Raft.Message.Entries (Array.init batch (fun k -> entry (first + k)));
           leader_last_index = first + batch - 1;
         })
  in
  let aes = Array.init (warmup + n) (fun i -> ae ((i * batch) + 1)) in
  let feed i =
    Myraft.Server.handle_message server ~src:"mysql1" aes.(i);
    Sim.Engine.run_for engine step
  in
  for i = 0 to warmup - 1 do
    feed i
  done;
  let words =
    Kit.Alloc.minor_words (fun () ->
        for i = warmup to warmup + n - 1 do
          feed i
        done)
  in
  Alcotest.(check int) "applied all but the last AE's entries"
    (((warmup + n) * batch) - batch)
    (Storage.Engine.committed_count (Myraft.Server.storage server));
  words /. float_of_int (n * batch)

(* A committed write: the request's prepare event, the engine's prepare
   and commit, the pipeline's record, the log entry and its transaction
   record, the AppendEntries round trips to both logtailers, the group's
   stage events and the reply.  Measured at 307.2 words (313.2 when a
   new key's slot and its two hashtable cells were three blocks, 330.2
   when a transaction was a list of four events); putting back a per-write
   closure (a [{flush; finish}] pair, the reply, the prepare thunk), a
   per-write list, a per-group copy of the pipeline's columns or a
   latency sample per committed index pushes it past the bound. *)
let primary_write_bound = 308

(* An applied entry, one per AppendEntries: the follower's append and
   ack, the applier's ticket and execute event, the engine's prepare and
   commit, the pipeline's relay item and the group's stage events.
   Measured at 88.8 words (94.8 with a new key in three blocks); a
   per-entry closure in the applier or the pipeline, a hashtable or
   queue cell per entry, or a list of the entry's writes pushes it past
   the bound. *)
let replica_apply_bound = 89

(* An applied entry of a 64-entry AppendEntries, the batch shape the
   workloads send: the follower's append and ack and the pipeline's
   stage events are shared by the batch, so this is the applier, engine
   and pipeline's cost per transaction.  Measured at 30.7 words (36.7
   with a new key in three blocks). *)
let replica_batch_apply_bound = 31

let test_primary_write_words () =
  let words = primary_write_words () in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per committed write <= %d" words primary_write_bound)
    true
    (words <= float_of_int primary_write_bound)

(* Words a paper-topology [Cluster.create] plus [bootstrap] allocates:
   74,426 measured.  It read 125,626 while each of the bootstrap's
   config installs sorted both member lists to compare them and built
   the ring's description from a [sprintf] per member. *)
let setup_words_bound = 75_000

let test_setup_words () =
  let words, _ = Kit.Alloc.setup () in
  Alcotest.(check bool)
    (Printf.sprintf "%.0f words per create+bootstrap <= %d" words setup_words_bound)
    true
    (words <= float_of_int setup_words_bound)

(* Words of the primary's log retained per committed one-row write with
   a 300-byte payload: the entry, its OpId, its transaction record and
   GTID, the row's key and op, and the log's slot.  Measured at 28.13
   words; the four-event list form (GTID event, table map, rows event
   and XID in four list cells) read 45.13.  The payload string is
   shared by every write of its size; a fresh 300-byte string per write
   (39 words) or a list of events per write pushes it past the bound. *)
let retained_write_bound = 29

let test_retained_write_words () =
  let words, _ = Kit.Alloc.retained_per_write () in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f log words retained per committed write <= %d" words
       retained_write_bound)
    true
    (words <= float_of_int retained_write_bound)

(* Histogram samples retained per committed write on the same ring,
   summed over the three members' registries: the primary's three stage
   latencies, group size and commit-cycle size, its two AEs' batch sizes,
   and one fsync batch per member.  Measured at 10.0 (14.0 with a
   commit-latency sample per member and an end-to-end one per
   transaction); one more sample per write pushes it past the
   bound. *)
let retained_samples_bound = 10.5

let test_retained_samples () =
  let samples, _ = Kit.Alloc.samples_per_write () in
  Alcotest.(check bool)
    (Printf.sprintf "%.2f histogram samples retained per committed write <= %.1f" samples
       retained_samples_bound)
    true
    (samples <= retained_samples_bound)

let check_replica_words ~batch ~warmup ~n ~step ~bound =
  let words = replica_apply_words ~batch ~warmup ~n ~step in
  Alcotest.(check bool)
    (Printf.sprintf "%.1f words per applied entry (%d per AE) <= %d" words batch bound)
    true
    (words <= float_of_int bound)

let test_replica_apply_words () =
  check_replica_words ~batch:1 ~warmup:200 ~n:1_000 ~step:Sim.Engine.ms
    ~bound:replica_apply_bound

let test_replica_batch_apply_words () =
  check_replica_words ~batch:64 ~warmup:8 ~n:32 ~step:(5.0 *. Sim.Engine.ms)
    ~bound:replica_batch_apply_bound

let suites =
  [
    ( "myraft.writes",
      [
        Alcotest.test_case "bootstrap elects writable primary" `Quick
          test_bootstrap_elects_writable_primary;
        Alcotest.test_case "write commits and replicates" `Quick
          test_write_commits_and_replicates;
        Alcotest.test_case "many writes converge" `Quick test_many_writes_converge;
        Alcotest.test_case "replica rejects writes" `Quick test_replica_rejects_writes;
        Alcotest.test_case "gtids preserved" `Quick test_gtids_preserved;
        Alcotest.test_case "opids stamped" `Quick test_opid_stamped_on_transactions;
      ] );
    ( "myraft.promotion",
      [
        Alcotest.test_case "graceful promotion" `Quick test_graceful_promotion;
        Alcotest.test_case "new primary mints own gtids" `Quick
          test_new_primary_uses_own_gtid_source;
      ] );
    ( "myraft.failover",
      [
        Alcotest.test_case "failover after crash" `Quick test_failover_after_primary_crash;
        Alcotest.test_case "crashed primary rejoins as replica" `Quick
          test_crashed_primary_rejoins_as_replica;
        Alcotest.test_case "witness hands off leadership" `Quick
          test_witness_hands_off_leadership;
      ] );
    ( "myraft.recovery",
      [
        Alcotest.test_case "case 2: unreplicated txn truncated" `Quick
          test_recovery_case2_unreplicated_txn_truncated;
        Alcotest.test_case "case 1: prepared-only rolled back" `Quick
          test_recovery_case1_prepared_rolled_back;
        Alcotest.test_case "case 3: replicated txn reapplied" `Quick
          test_recovery_case3_replicated_txn_reapplied;
      ] );
    ( "myraft.logs",
      [
        Alcotest.test_case "rotate replicated" `Quick test_rotate_replicated;
        Alcotest.test_case "purge respects watermarks" `Quick test_purge_respects_watermarks;
        Alcotest.test_case "purge blocked by lagging region" `Quick
          test_purge_blocked_by_lagging_region;
      ] );
    ( "myraft.availability",
      [
        Alcotest.test_case "steady state no downtime" `Quick test_steady_state_no_downtime;
        Alcotest.test_case "failover downtime measured" `Quick
          test_failover_downtime_measured;
      ] );
    ("myraft.roles", [ Alcotest.test_case "table 1" `Quick test_roles_table ]);
    ( "myraft.alloc",
      [
        Alcotest.test_case "primary words per committed write" `Quick test_primary_write_words;
        Alcotest.test_case "histogram samples retained per committed write" `Quick
          test_retained_samples;
        Alcotest.test_case "log words retained per committed write" `Quick
          test_retained_write_words;
        Alcotest.test_case "create+bootstrap words" `Quick test_setup_words;
        Alcotest.test_case "replica words per applied entry" `Quick test_replica_apply_words;
        Alcotest.test_case "replica words per applied entry, 64-entry AEs" `Quick
          test_replica_batch_apply_words;
      ] );
  ]
