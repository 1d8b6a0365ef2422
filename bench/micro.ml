(* M1 — Bechamel micro-benchmarks (real wall-clock time) of the hot data
   structures: GTID-set operations, log append, CRC-32 checksumming,
   entry stamping, quorum evaluation, the commit point and the lease
   threshold, a log slice, the trace ring, the event queue, timer churn
   in the engine, the pipeline, the replica applier and histogram
   recording; then every figure a tier-1 alloc pin checks (a leader
   settling acks, an AppendEntries round trip, a message sent and
   delivered, an engine prepare+commit, the history and row words a
   standalone engine retains, a GTID tip add, a lease read, a generator
   lane, and the log and histogram samples retained per committed
   write), timed and printed beside its words from the kit
   probe the pin runs.  Every fixture is built inside [run], so no
   other experiment pays for it. *)

open Bechamel
open Toolkit

let gtid_set_add () =
  Test.make ~name:"gtid_set.add (1k gnos)"
    (Staged.stage (fun () ->
         let set = ref Binlog.Gtid_set.empty in
         for g = 1 to 1000 do
           set := Binlog.Gtid_set.add !set (Binlog.Gtid.make ~source:"srv" ~gno:g)
         done;
         !set))

let gtid_set_contains () =
  let set =
    let s = ref Binlog.Gtid_set.empty in
    for g = 1 to 10_000 do
      if g mod 3 <> 0 then s := Binlog.Gtid_set.add !s (Binlog.Gtid.make ~source:"srv" ~gno:g)
    done;
    !s
  in
  Test.make ~name:"gtid_set.contains (10k-gno set)"
    (Staged.stage (fun () ->
         Binlog.Gtid_set.contains set (Binlog.Gtid.make ~source:"srv" ~gno:7777)))

let log_append () =
  Test.make ~name:"log_store.append (100 txns)"
    (Staged.stage (fun () ->
         let log = Binlog.Log_store.create () in
         for i = 1 to 100 do
           Binlog.Log_store.append log
             (Binlog.Entry.make
                ~opid:(Binlog.Opid.make ~term:1 ~index:i)
                (Binlog.Entry.Transaction
                   {
                     gtid = Binlog.Gtid.make ~source:"srv" ~gno:i;
                     table = "t";
                     ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ];
                     xid = 0;
                   }))
         done;
         log))

let crc32 () =
  let payload = String.make 512 'x' in
  Test.make ~name:"crc32 (512B payload)" (Staged.stage (fun () -> Binlog.Checksum.string payload))

(* One sysbench-style write as the commit path stamps it: GTID, table
   map, a one-row insert of ~300 B, XID. *)
let entry_make () =
  let gtid = Binlog.Gtid.make ~source:"mysql1" ~gno:12_345 in
  let payload =
    Binlog.Entry.Transaction
      {
        gtid;
        table = "sbtest";
        ops = [ Binlog.Event.Insert { key = "row-12345"; value = String.make 300 'd' } ];
        xid = 12_345;
      }
  in
  let opid = Binlog.Opid.make ~term:3 ~index:12_345 in
  Test.make ~name:"entry.make (sysbench txn, 300B row)"
    (Staged.stage (fun () -> Binlog.Entry.make ~opid payload))

(* The §6.1 evaluation ring: six regions of three voters each. *)
let ring_18 () = Kit.Bare.config (Kit.Bare.ring 6)

let quorum_check () =
  let cfg_18 = ring_18 () in
  let acks = [ "n10"; "n11" ] in
  Test.make ~name:"flexiraft data-quorum check (18 voters)"
    (Staged.stage (fun () ->
         Raft.Quorum.data_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg_18
           ~leader_region:"r1" ~acks))

(* Config position of each member of [cfg_18]. *)
let rank_18 cfg_18 id =
  let rec go i = function
    | m :: rest -> if m.Raft.Types.id = id then i else go (i + 1) rest
    | [] -> raise Not_found
  in
  go 0 cfg_18.Raft.Types.members

(* A leader in r1 with a pipeline in flight: acks spread over the last
   few indexes, one stamp per member slot as the Raft node fills them. *)
let commit_point () =
  let cfg_18 = ring_18 () in
  let l =
    Raft.Quorum.layout Raft.Quorum.Single_region_dynamic cfg_18 ~self:"n10"
      ~leader_region:"r1"
  in
  Array.iteri
    (fun i id -> (Raft.Quorum.stamps l).(i) <- float_of_int (1_000 - (rank_18 cfg_18 id * 3)))
    (Raft.Quorum.slots l);
  Test.make ~name:"quorum.commit_point (18 voters)"
    (Staged.stage (fun () ->
         Raft.Quorum.commit_point l ~self:1_000 ~above:990 ~upto:1_000))

(* The same leader's lease search: every peer's acked send, stamped a
   few hundred microseconds apart. *)
let lease_point () =
  let cfg_18 = ring_18 () in
  let l =
    Raft.Quorum.layout Raft.Quorum.Single_region_dynamic cfg_18 ~self:"n10"
      ~leader_region:"r1"
  in
  Array.iteri
    (fun i id ->
      let local = 1_000_000.0 -. (float_of_int (rank_18 cfg_18 id - 1) *. 250.0) in
      (Raft.Quorum.stamps l).(i) <- local;
      (Raft.Quorum.globals l).(i) <- local +. 3.0)
    (Raft.Quorum.slots l);
  Test.make ~name:"quorum.lease_point (18 voters)"
    (Staged.stage (fun () ->
         Raft.Quorum.lease_point l ~now:1_000_500.0 ~now_global:1_000_503.0))

(* One consensus-commit event into a full (wrapping) trace ring. *)
let tracebuf_record () =
  let tb = Obs.Tracebuf.create () in
  let index = ref 0 in
  Test.make ~name:"tracebuf.record"
    (Staged.stage (fun () ->
         incr index;
         Obs.Tracebuf.record tb ~time:1_000.0 ~node:"mysql1" ~stage:"consensus-commit" ~term:3
           ~index:!index ()))

(* One AppendEntries batch read off the log: 64 sysbench-sized entries
   sliced under a 128 KiB byte budget. *)
let log_store_read_slice () =
  let entries =
    Array.init 64 (fun i ->
        Binlog.Entry.make
          ~opid:(Binlog.Opid.make ~term:1 ~index:(i + 1))
          (Binlog.Entry.Transaction
             {
               gtid = Binlog.Gtid.make ~source:"srv" ~gno:(i + 1);
               table = "sbtest";
               ops = [ Binlog.Event.Insert { key = "k"; value = String.make 300 'd' } ];
               xid = 0;
             }))
  in
  let log = Binlog.Log_store.create () in
  Array.iter (Binlog.Log_store.append log) entries;
  Test.make ~name:"log_store.read_slice (64 entries)"
    (Staged.stage (fun () ->
         Binlog.Log_store.read_slice log ~max_bytes:(128 * 1024) ~from_index:1
           ~max_count:64))

(* The event queue at a steady depth: [depth] self-rearming call
   events, each firing schedules its successor a pseudo-random delay
   (mean 2,499.5 us) ahead, so the queue sifts as the engine's loop does
   under load.  Each run advances virtual time by the mean gap between
   firings, so it schedules and fires one event on average. *)
let engine_schedule_fire depth =
  let engine = Sim.Engine.create () in
  let seq = ref 0 in
  let rec rearm () () =
    incr seq;
    let delay = float_of_int ((!seq * 7919) mod 5_000) in
    ignore (Sim.Engine.schedule_call engine ~delay rearm () ())
  in
  for _ = 1 to depth do
    rearm () ()
  done;
  let gap = 2_499.5 /. float_of_int depth in
  Test.make
    ~name:(Printf.sprintf "sim.engine schedule+fire (depth %dk)" (depth / 1000))
    (Staged.stage (fun () -> Sim.Engine.run_for engine gap))

(* Timer churn at a steady live depth, as election timers see it: each
   run resets one long timer (cancel + schedule) and fires the earliest
   of [live] self-rearming ticks, one per virtual microsecond.  A
   cancelled timer would sit 100x the tick period in a flag-only queue,
   so after the [10 * live] warm-up resets such a queue would hold over
   10x the live events; the queue length printed after the run shows it
   does not. *)
let engine_timer_reset live =
  let engine = Sim.Engine.create () in
  let period = float_of_int live in
  let rec tick () = ignore (Sim.Engine.schedule engine ~delay:period tick) in
  for i = 1 to live do
    ignore (Sim.Engine.schedule engine ~delay:(float_of_int i) tick)
  done;
  let reset = ref (Sim.Engine.schedule engine ~delay:(100.0 *. period) ignore) in
  let step () =
    Sim.Engine.cancel !reset;
    reset := Sim.Engine.schedule engine ~delay:(100.0 *. period) ignore;
    Sim.Engine.run_for engine 1.0
  in
  for _ = 1 to 10 * live do
    step ()
  done;
  let test =
    Test.make
      ~name:(Printf.sprintf "sim.engine timer reset (%dk live)" (live / 1000))
      (Staged.stage step)
  in
  (test, engine)

let pipeline_group_drain () =
  (* submit → flush group → consensus release → engine commit for 100
     txns; exercises the preallocated group accumulator end to end *)
  Test.make ~name:"pipeline group drain (100 txns)"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         let done_count = ref 0 in
         let p =
           Myraft.Pipeline.create ~engine ~params:Myraft.Params.default ~is_primary_path:true
             ~flush:(fun index -> index)
             ~finish:(fun _ ~ok:_ -> incr done_count)
             ()
         in
         for i = 1 to 100 do
           Myraft.Pipeline.submit p i
         done;
         Myraft.Pipeline.notify_commit_index p 100;
         Sim.Engine.run_for engine (0.1 *. Sim.Engine.s);
         assert (!done_count = 100);
         !done_count))

(* A replica draining 1k independent relay-log transactions through 4
   lanes while every engine commit waits on consensus: the in-flight
   table grows to all 1k entries before the first commit, as on a
   replica whose pipeline waits on the leader's commit marker. *)
let applier_drain () =
  let n = 1_000 in
  let params = { Myraft.Params.default with Myraft.Params.applier_workers = 4 } in
  let entries =
    List.init n (fun i ->
        let index = i + 1 in
        let e =
          Binlog.Entry.make
            ~opid:(Binlog.Opid.make ~term:1 ~index)
            (Binlog.Entry.Transaction
               {
                 gtid = Binlog.Gtid.make ~source:"srv" ~gno:index;
                 table = "t";
                 ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ];
                 xid = 0;
               })
        in
        Binlog.Entry.set_deps e ~last_committed:0;
        e)
  in
  Test.make ~name:"applier 1k entries / 4 lanes"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         let pending = Queue.create () in
         let a =
           Myraft.Applier.create ~engine ~params ()
             ~process:(fun _ tk ->
               Queue.push tk pending;
               Myraft.Applier.submitted tk)
         in
         Myraft.Applier.start a ~from_index:1 ~backlog:entries;
         Sim.Engine.run_for engine (1.0 *. Sim.Engine.s);
         Queue.iter (fun tk -> Myraft.Applier.finished tk ~ok:true) pending;
         assert (Myraft.Applier.applied_index a = n);
         a))

(* Vec growth and random access at a million elements: the chunked
   directory against the one-level index it replaced. *)
let vec_push () =
  Test.make ~name:"vec push (1M)"
    (Staged.stage (fun () ->
         let v = Vec.create ~dummy:0 in
         for i = 1 to 1_000_000 do
           Vec.push v i
         done;
         v))

let vec_get_random () =
  let n = 1 lsl 20 in
  let v = Vec.create ~dummy:0 in
  for i = 1 to n do
    Vec.push v i
  done;
  Test.make ~name:"vec get random (1M)"
    (Staged.stage (fun () ->
         let i = ref 7 and sum = ref 0 in
         for _ = 1 to 1_000_000 do
           i := ((!i * 1_103_515_245) + 12_345) land (n - 1);
           sum := !sum + Vec.get v !i
         done;
         !sum))

(* 10k one-row transactions appended to a fresh log, then each read back
   by index, as replication reads a cold log. *)
let log_store_append_read () =
  let n = 10_000 in
  let entries =
    Array.init n (fun i ->
        Binlog.Entry.make
          ~opid:(Binlog.Opid.make ~term:1 ~index:(i + 1))
          (Binlog.Entry.Transaction
             {
               gtid = Binlog.Gtid.make ~source:"srv" ~gno:(i + 1);
               table = "t";
               ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ];
               xid = 0;
             }))
  in
  Test.make ~name:"log_store append + entry_at (10k)"
    (Staged.stage (fun () ->
         let log = Binlog.Log_store.create () in
         Array.iter (Binlog.Log_store.append log) entries;
         let bytes = ref 0 in
         for i = 1 to n do
           match Binlog.Log_store.entry_at log i with
           | Some e -> bytes := !bytes + Binlog.Entry.size e
           | None -> ()
         done;
         !bytes))

let histogram_record () =
  Test.make ~name:"histogram.record (1k samples)"
    (Staged.stage (fun () ->
         let h = Stats.Histogram.create () in
         for i = 1 to 1000 do
           Stats.Histogram.record h (float_of_int i)
         done;
         h))

(* The figures the tier-1 alloc pins check: each kit probe measures its
   figure as the pin does and returns the round it measured, which
   Bechamel times.  Each is (test, (name, words line)). *)
let pinned () =
  let probe name words (figure, round) =
    (Test.make ~name (Staged.stage round), (name, words figure))
  in
  let per unit words = Printf.sprintf "%8.1f words/%s" words unit in
  let ack regions =
    probe
      (Printf.sprintf "raft.leader ack (%d voters)" (3 * regions))
      (per "ack") (Kit.Alloc.leader_ack regions)
  in
  let send link =
    probe
      (Printf.sprintf "sim.network send+deliver (%s)" (Kit.Alloc.link_name link))
      (per "msg") (Kit.Alloc.send_deliver link)
  in
  [
    ack 3;
    ack 6;
    probe "raft.append round trip (1 entry, 9 members)"
      (fun (send, follower, ack) ->
        Printf.sprintf "%8.1f words/AE sent, %.1f/follower append, %.1f/ack" send follower
          ack)
      (Kit.Alloc.round_trip ());
    send Kit.Alloc.Same_region;
    send Kit.Alloc.Pinned_link;
    send Kit.Alloc.Cross_region;
    probe "storage.engine prepare+commit (1 row)" (per "op")
      (Kit.Alloc.prepare_commit ());
    probe "storage.engine history retained per commit" (per "commit")
      (Kit.Alloc.engine_history ());
    probe "storage.engine row retained (insert+delete)" (per "key")
      (Kit.Alloc.engine_row ());
    probe "gtid_set tip add" (per "op") (Kit.Alloc.tip_add ());
    probe "read.lease read at dispatch (leader)" (per "read") (Kit.Alloc.leader_read ());
    probe "workload.generator lane open+settle" (per "read") (Kit.Alloc.lane ());
    probe "cluster create+bootstrap (paper ring)" (per "run") (Kit.Alloc.setup ());
    probe "binlog retained per committed write" (per "write")
      (Kit.Alloc.retained_per_write ());
    probe "obs.histogram samples per write" (Printf.sprintf "%8.1f samples/write")
      (Kit.Alloc.samples_per_write ());
  ]

let run () =
  Common.header "M1 — micro-benchmarks (Bechamel, real time)";
  let timer_reset, timer_engine = engine_timer_reset 1_000 in
  let pinned = pinned () in
  let words = List.map snd pinned in
  let tests =
    [
      gtid_set_add ();
      gtid_set_contains ();
      log_append ();
      crc32 ();
      entry_make ();
      quorum_check ();
      commit_point ();
      lease_point ();
      tracebuf_record ();
      log_store_read_slice ();
      engine_schedule_fire 1_000;
      engine_schedule_fire 300_000;
      timer_reset;
      pipeline_group_drain ();
      applier_drain ();
      histogram_record ();
      vec_push ();
      vec_get_random ();
      log_store_append_read ();
    ]
    @ List.map fst pinned
  in
  let instances = Instance.[ monotonic_clock ] in
  (* No GC stabilisation between samples: it compacts the whole heap
     each time, fixtures included, and that cost lands in the sample. *)
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) ~stabilize:false ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] ->
            Printf.printf "  %-42s %12.1f ns/run%s\n%!" name est
              (match List.assoc_opt name words with Some w -> " " ^ w | None -> "")
          | _ -> Printf.printf "  %-42s (no estimate)\n%!" name)
        analyzed)
    tests;
  Printf.printf "  %-42s %12d entries (%d live)\n%!" "sim.engine queue after timer resets"
    (Sim.Engine.queue_length timer_engine)
    (Sim.Engine.pending timer_engine)
