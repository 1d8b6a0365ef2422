(* M1 — Bechamel micro-benchmarks (real wall-clock time) of the hot data
   structures: GTID-set operations, log append, CRC-32 checksumming,
   entry stamping, quorum evaluation, the commit point and the lease
   threshold, a leader settling acks, an AppendEntries round trip, the
   log cache, the trace ring, the event heap, timer churn in the engine,
   the replica applier and engine prepare, and histogram recording; then
   the words of a lease read answered at dispatch and of a generator
   lane, as the read.alloc pins measure them. *)

open Bechamel
open Toolkit

let gtid_set_add =
  Test.make ~name:"gtid_set.add (1k gnos)"
    (Staged.stage (fun () ->
         let set = ref Binlog.Gtid_set.empty in
         for g = 1 to 1000 do
           set := Binlog.Gtid_set.add !set (Binlog.Gtid.make ~source:"srv" ~gno:g)
         done;
         !set))

let gtid_set_contains =
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

let log_append =
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
                     events =
                       [
                         Binlog.Event.make
                           (Binlog.Event.Write_rows
                              {
                                table = "t";
                                ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ];
                              });
                       ];
                   }))
         done;
         log))

let crc32 =
  let payload = String.make 512 'x' in
  Test.make ~name:"crc32 (512B payload)" (Staged.stage (fun () -> Binlog.Checksum.string payload))

(* One sysbench-style write as the commit path stamps it: GTID, table
   map, a one-row insert of ~300 B, XID. *)
let entry_make =
  let gtid = Binlog.Gtid.make ~source:"mysql1" ~gno:12_345 in
  let payload =
    Binlog.Entry.Transaction
      {
        gtid;
        events =
          [
            Binlog.Event.make (Binlog.Event.Gtid_event gtid);
            Binlog.Event.make (Binlog.Event.Table_map { table = "sbtest" });
            Binlog.Event.make
              (Binlog.Event.Write_rows
                 {
                   table = "sbtest";
                   ops = [ Binlog.Event.Insert { key = "row-12345"; value = String.make 300 'd' } ];
                 });
            Binlog.Event.make (Binlog.Event.Xid { xid = 12_345 });
          ];
      }
  in
  let opid = Binlog.Opid.make ~term:3 ~index:12_345 in
  Test.make ~name:"entry.make (sysbench txn, 300B row)"
    (Staged.stage (fun () -> Binlog.Entry.make ~opid payload))

(* The §6.1 evaluation ring: six regions of three voters each. *)
let cfg_18 =
  {
    Raft.Types.members =
      List.concat_map
        (fun r ->
          List.map
            (fun i ->
              {
                Raft.Types.id = Printf.sprintf "n%s%d" r i;
                region = r;
                voter = true;
                kind = Raft.Types.Mysql_server;
              })
            [ 1; 2; 3 ])
        [ "r1"; "r2"; "r3"; "r4"; "r5"; "r6" ];
  }

let quorum_check =
  let acks = [ "nr11"; "nr12" ] in
  Test.make ~name:"flexiraft data-quorum check (18 voters)"
    (Staged.stage (fun () ->
         Raft.Quorum.data_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg_18
           ~leader_region:"r1" ~acks))

(* Config position of each member of [cfg_18]. *)
let rank_18 id =
  let rec go i = function
    | m :: rest -> if m.Raft.Types.id = id then i else go (i + 1) rest
    | [] -> raise Not_found
  in
  go 0 cfg_18.Raft.Types.members

(* A leader in r1 with a pipeline in flight: acks spread over the last
   few indexes, one stamp per member slot as the Raft node fills them. *)
let commit_point =
  let l =
    Raft.Quorum.layout Raft.Quorum.Single_region_dynamic cfg_18 ~self:"nr11"
      ~leader_region:"r1"
  in
  Array.iteri
    (fun i id -> (Raft.Quorum.stamps l).(i) <- float_of_int (1_000 - (rank_18 id * 3)))
    (Raft.Quorum.slots l);
  Test.make ~name:"quorum.commit_point (18 voters)"
    (Staged.stage (fun () ->
         Raft.Quorum.commit_point l ~self:1_000 ~above:990 ~upto:1_000))

(* The same leader's lease search: every peer's acked send, stamped a
   few hundred microseconds apart. *)
let lease_point =
  let l =
    Raft.Quorum.layout Raft.Quorum.Single_region_dynamic cfg_18 ~self:"nr11"
      ~leader_region:"r1"
  in
  Array.iteri
    (fun i id ->
      let local = 1_000_000.0 -. (float_of_int (rank_18 id - 1) *. 250.0) in
      (Raft.Quorum.stamps l).(i) <- local;
      (Raft.Quorum.globals l).(i) <- local +. 3.0)
    (Raft.Quorum.slots l);
  Test.make ~name:"quorum.lease_point (18 voters)"
    (Staged.stage (fun () ->
         Raft.Quorum.lease_point l ~now:1_000_500.0 ~now_global:1_000_503.0))

(* A leader of [cfg] (FlexiRaft, proxying on) whose followers keep up:
   each run appends one entry and answers every peer's AppendEntries for
   it, the peers played by hand with no network in between.  Returns
   the test and a probe of the minor words one ack allocates (the
   answers alone, measured over 1k runs). *)
let leader_ack cfg =
  let engine = Sim.Engine.create ~seed:1 () in
  let sent = Queue.create () in
  let rec final ~dst = function
    | Raft.Message.Append_entries ae -> Queue.push (dst, ae) sent
    | Raft.Message.Proxied { next_hops; inner } ->
      final ~dst:(List.nth next_hops (List.length next_hops - 1)) inner
    | _ -> ()
  in
  let self = List.hd cfg.Raft.Types.members in
  let node =
    Raft.Node.create ~engine ~id:self.Raft.Types.id ~region:self.Raft.Types.region
      ~send:(fun ~dst msg -> final ~dst msg)
      ~log:
        (Raft.Node.log_ops_of_store
           (Binlog.Log_store.create ~mode:Binlog.Log_store.Relay ()))
      ~callbacks:(Raft.Node.default_callbacks ())
      ~params:Raft.Node.default_params ~initial_config:cfg
      ~durable:(Raft.Node.fresh_durable ()) ~trace:(Sim.Trace.create engine) ()
  in
  Raft.Node.set_force_election_quorum node true;
  Raft.Node.trigger_election node;
  let acks () =
    let through = Raft.Node.last_index node in
    let acks =
      Queue.fold
        (fun acc (dst, (ae : Raft.Message.append_entries)) ->
          ( dst,
            Raft.Message.Append_entries_response
              {
                term = ae.term;
                from = dst;
                success = true;
                last_log_index = through;
                last_appended_index = through;
                request_seq = ae.seq;
                cfg_id = ae.cfg_id;
                follower_time = 0.0;
              } )
          :: acc)
        [] sent
    in
    Queue.clear sent;
    acks
  in
  let settle = List.iter (fun (src, msg) -> Raft.Node.handle_message node ~src msg) in
  let round () =
    ignore (Raft.Node.client_append node Binlog.Entry.Noop);
    settle (acks ())
  in
  settle (acks ());
  let words_per_ack () =
    let words = ref 0.0 and n = ref 0 in
    for _ = 1 to 1_000 do
      ignore (Raft.Node.client_append node Binlog.Entry.Noop);
      let acks = acks () in
      let before = Gc.minor_words () in
      settle acks;
      words := !words +. (Gc.minor_words () -. before);
      n := !n + List.length acks
    done;
    !words /. float_of_int !n
  in
  let voters = List.length (Raft.Types.voters cfg) in
  let name = Printf.sprintf "raft.leader ack (%d voters)" voters in
  (Test.make ~name (Staged.stage round), (name, words_per_ack))

(* The nine-member failover ring: three regions of three voters. *)
let cfg_9 =
  {
    Raft.Types.members =
      List.filter (fun m -> rank_18 m.Raft.Types.id < 9) cfg_18.Raft.Types.members;
  }

(* One AppendEntries round trip in [cfg_9] (proxying on): the leader
   appends one entry and sends its eight AEs, a real follower in its
   region appends the entry and answers, the leader takes that ack, and
   the other seven peers are answered by hand.  Sends are captured into
   preallocated slots.  Returns the test and a probe of the words per AE
   sent (the entry's append amortized over them), per follower append
   and per leader ack, over 1k round trips. *)
let append_round_trip () =
  let engine = Sim.Engine.create ~seed:1 () in
  let trace = Sim.Trace.create engine in
  let dsts = Array.make 64 "" and msgs = Array.make 64 (Raft.Message.Timeout_now { term = 0 }) in
  let sent = ref 0 and reply = ref (Raft.Message.Timeout_now { term = 0 }) in
  let rec capture ~dst = function
    | Raft.Message.Proxied { next_hops; inner } ->
      capture ~dst:(List.nth next_hops (List.length next_hops - 1)) inner
    | msg ->
      dsts.(!sent) <- dst;
      msgs.(!sent) <- msg;
      incr sent
  in
  let node (m : Raft.Types.member) send =
    Raft.Node.create ~engine ~id:m.Raft.Types.id ~region:m.Raft.Types.region ~send
      ~log:
        (Raft.Node.log_ops_of_store
           (Binlog.Log_store.create ~mode:Binlog.Log_store.Relay ()))
      ~callbacks:(Raft.Node.default_callbacks ())
      ~params:Raft.Node.default_params ~initial_config:cfg_9
      ~durable:(Raft.Node.fresh_durable ()) ~trace ()
  in
  let self, other =
    match cfg_9.Raft.Types.members with a :: b :: _ -> (a, b) | _ -> assert false
  in
  let leader = node self capture in
  let follower = node other (fun ~dst:_ msg -> reply := msg) in
  let fid = other.Raft.Types.id and lid = self.Raft.Types.id in
  Raft.Node.set_force_election_quorum leader true;
  Raft.Node.trigger_election leader;
  (* answer everything captured, the follower's AEs through the follower *)
  let rec settle () =
    if !sent > 0 then begin
      let batch = List.init !sent (fun i -> (dsts.(i), msgs.(i))) in
      sent := 0;
      List.iter
        (fun (dst, msg) ->
          match msg with
          | Raft.Message.Append_entries _ when dst = fid ->
            Raft.Node.handle_message follower ~src:lid msg;
            Raft.Node.handle_message leader ~src:fid !reply
          | Raft.Message.Append_entries ae ->
            let through = Raft.Node.last_index leader in
            Raft.Node.handle_message leader ~src:dst
              (Raft.Message.Append_entries_response
                 {
                   term = ae.term;
                   from = dst;
                   success = true;
                   last_log_index = through;
                   last_appended_index = through;
                   request_seq = ae.seq;
                   cfg_id = ae.cfg_id;
                   follower_time = 0.0;
                 })
          | _ -> ())
        batch;
      settle ()
    end
  in
  settle ();
  let words = Array.make 3 0.0 and aes = ref 0 in
  (* [measure i f] runs [f], adding its words to [words.(i)] *)
  let measure i f =
    let before = Gc.minor_words () in
    f ();
    words.(i) <- words.(i) +. (Gc.minor_words () -. before)
  in
  let round () =
    measure 0 (fun () -> ignore (Raft.Node.client_append leader Binlog.Entry.Noop));
    aes := !aes + !sent;
    let k = ref (-1) in
    for i = 0 to !sent - 1 do
      if dsts.(i) = fid then k := i
    done;
    let ae = msgs.(!k) in
    dsts.(!k) <- "";
    measure 1 (fun () -> Raft.Node.handle_message follower ~src:lid ae);
    let ack = !reply in
    measure 2 (fun () -> Raft.Node.handle_message leader ~src:fid ack);
    settle ();
    Sim.Engine.run_for engine Sim.Engine.ms
  in
  let probe () =
    Array.fill words 0 3 0.0;
    aes := 0;
    let n = 1_000 in
    for _ = 1 to n do
      round ()
    done;
    let per_round i = words.(i) /. float_of_int n in
    Printf.sprintf "%8.1f words/AE sent, %.1f/follower append, %.1f/ack"
      (words.(0) /. float_of_int !aes)
      (per_round 1) (per_round 2)
  in
  let name = "raft.append round trip (1 entry, 9 members)" in
  (Test.make ~name (Staged.stage round), (name, probe))

(* One consensus-commit event into a full (wrapping) trace ring. *)
let tracebuf_record =
  let tb = Obs.Tracebuf.create () in
  let index = ref 0 in
  Test.make ~name:"tracebuf.record"
    (Staged.stage (fun () ->
         incr index;
         Obs.Tracebuf.record tb ~time:1_000.0 ~node:"mysql1" ~stage:"consensus-commit" ~term:3
           ~index:!index ()))

(* Leader cache turnover: 64 sysbench-sized entries put at the tail, then
   read back as one AppendEntries slice. *)
let log_cache_put_slice =
  let entries =
    Array.init 64 (fun i ->
        Binlog.Entry.make
          ~opid:(Binlog.Opid.make ~term:1 ~index:(i + 1))
          (Binlog.Entry.Transaction
             {
               gtid = Binlog.Gtid.make ~source:"srv" ~gno:(i + 1);
               events =
                 [
                   Binlog.Event.make
                     (Binlog.Event.Write_rows
                        {
                          table = "sbtest";
                          ops =
                            [ Binlog.Event.Insert { key = "k"; value = String.make 300 'd' } ];
                        });
                 ];
             }))
  in
  let cache = Raft.Log_cache.create ~max_bytes:(4 * 1024 * 1024) () in
  Test.make ~name:"log_cache.put + read_slice (64 entries)"
    (Staged.stage (fun () ->
         Raft.Log_cache.truncate_from cache ~index:1;
         Array.iter (Raft.Log_cache.put cache) entries;
         Raft.Log_cache.read_slice cache ~max_bytes:(128 * 1024) ~from_index:1 ~max_count:64
           ~read_log:(fun _ -> Binlog.Log_store.absent)))

(* The event queue at a steady depth: each run schedules one event a
   pseudo-random distance past the last one popped, then pops the
   earliest, as the engine's loop does. *)
let heap_push_pop depth =
  let heap = Sim.Heap.create () in
  let seq = ref 0 and now = ref 0.0 in
  let next_key () =
    incr seq;
    !now +. float_of_int ((!seq * 7919) mod 5_000)
  in
  for _ = 1 to depth do
    Sim.Heap.push heap ~key:(next_key ()) ~seq:!seq ()
  done;
  Test.make
    ~name:(Printf.sprintf "sim.heap push+pop (depth %dk)" (depth / 1000))
    (Staged.stage (fun () ->
         Sim.Heap.push heap ~key:(next_key ()) ~seq:!seq ();
         now := Sim.Heap.min_key heap;
         Sim.Heap.pop_min heap))

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

(* One fault-free message from a to b, sent and run to its delivery,
   over the default latency model.  Words are counted over batches of
   1,000 sends and one engine run each, so they are the message's own:
   its call event, the boxed delay, key and latency sample (and, across
   regions, the jitter draw added to the pair's cached base). *)
let network_send_deliver ~cross =
  let engine = Sim.Engine.create () in
  let topo = Sim.Topology.create () in
  Sim.Topology.add_node topo ~id:"a" ~region:"r1";
  Sim.Topology.add_node topo ~id:"b" ~region:(if cross then "r2" else "r1");
  let net = Sim.Network.create engine topo () in
  Sim.Network.register net "b" (fun ~src:_ (_ : int) -> ());
  let send () = Sim.Network.send net ~src:"a" ~dst:"b" ~size:100 1 in
  let run () =
    send ();
    Sim.Engine.run_for engine 100_000.0
  in
  let batch = 1_000 in
  let send_batch () =
    for _ = 1 to batch do
      send ()
    done;
    Sim.Engine.run_for engine 100_000.0
  in
  let words_per_msg () =
    let batches = 10 in
    (* grow the event queue to a batch's depth first *)
    send_batch ();
    let before = Gc.minor_words () in
    for _ = 1 to batches do
      send_batch ()
    done;
    (Gc.minor_words () -. before) /. float_of_int (batch * batches)
  in
  let name =
    Printf.sprintf "sim.network send+deliver (%s region)" (if cross then "cross" else "same")
  in
  (Test.make ~name (Staged.stage run), (name, words_per_msg))

let pipeline_group_drain =
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
let applier_drain =
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
                 events =
                   [
                     Binlog.Event.make
                       (Binlog.Event.Write_rows
                          { table = "t"; ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ] });
                   ];
               })
        in
        Binlog.Entry.set_deps e ~last_committed:0 ~sequence_number:index;
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

(* Premade GTIDs of one source with rising gnos, so a measured run does
   not count making them. *)
type gtid_supply = { mutable gtids : Binlog.Gtid.t array; mutable next : int }

let supply_size = 1 lsl 16

let renew s =
  let base = Binlog.Gtid.gno s.gtids.(Array.length s.gtids - 1) in
  s.gtids <- Array.init supply_size (fun i -> Binlog.Gtid.make ~source:"srv" ~gno:(base + i + 1));
  s.next <- 0

let gtid_supply () =
  let s = { gtids = [| Binlog.Gtid.make ~source:"srv" ~gno:1 |]; next = 1 } in
  renew s;
  s

let take s =
  if s.next = Array.length s.gtids then renew s;
  let g = s.gtids.(s.next) in
  s.next <- s.next + 1;
  g

(* Minor words per call of [run], over 10k calls drawing on [s]. *)
let words_per_op s run () =
  let n = 10_000 in
  if s.next + n > Array.length s.gtids then renew s;
  let before = Gc.minor_words () in
  for _ = 1 to n do
    run ()
  done;
  (Gc.minor_words () -. before) /. float_of_int n

(* One single-row write staged and committed in the engine: the slot
   probe and lock, the row apply through the handle and the digest
   chain. *)
let engine_prepare_commit =
  let storage = Storage.Engine.create () in
  let events =
    [
      Binlog.Event.make
        (Binlog.Event.Write_rows
           {
             table = "sbtest";
             ops = [ Binlog.Event.Insert { key = "row-1"; value = String.make 300 'd' } ];
           });
    ]
  in
  let opid = Binlog.Opid.make ~term:1 ~index:1 in
  let s = gtid_supply () in
  let run () =
    let p = Storage.Engine.prepare storage ~gtid:(take s) ~events in
    Storage.Engine.commit_prepared storage p ~opid
  in
  let name = "storage.engine prepare+commit (1 row)" in
  (Test.make ~name (Staged.stage run), (name, words_per_op s run))

(* A binlog's GTID set growing by the next gno of its open tip. *)
let gtid_set_tip_add =
  let acc = Binlog.Gtid_set.Acc.create () in
  let s = gtid_supply () in
  let run () = Binlog.Gtid_set.Acc.add acc (take s) in
  let name = "gtid_set tip add" in
  (Test.make ~name (Staged.stage run), (name, words_per_op s run))

(* Vec growth and random access at a million elements: the chunked
   directory against the one-level index it replaced. *)
let vec_push =
  Test.make ~name:"vec push (1M)"
    (Staged.stage (fun () ->
         let v = Vec.create ~dummy:0 in
         for i = 1 to 1_000_000 do
           Vec.push v i
         done;
         v))

let vec_get_random =
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
let log_store_append_read =
  let n = 10_000 in
  let entries =
    Array.init n (fun i ->
        Binlog.Entry.make
          ~opid:(Binlog.Opid.make ~term:1 ~index:(i + 1))
          (Binlog.Entry.Transaction
             {
               gtid = Binlog.Gtid.make ~source:"srv" ~gno:(i + 1);
               events =
                 [
                   Binlog.Event.make
                     (Binlog.Event.Write_rows
                        { table = "t"; ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ] });
                 ];
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

let histogram_record =
  Test.make ~name:"histogram.record (1k samples)"
    (Staged.stage (fun () ->
         let h = Stats.Histogram.create () in
         for i = 1 to 1000 do
           Stats.Histogram.record h (float_of_int i)
         done;
         h))

let run () =
  Common.header "M1 — micro-benchmarks (Bechamel, real time)";
  let timer_reset, timer_engine = engine_timer_reset 1_000 in
  let ack_9, words_9 = leader_ack cfg_9 and ack_18, words_18 = leader_ack cfg_18 in
  let trip, words_trip = append_round_trip () in
  let engine_commit, words_commit = engine_prepare_commit
  and tip_add, words_tip = gtid_set_tip_add in
  let send_same, words_same = network_send_deliver ~cross:false
  and send_cross, words_cross = network_send_deliver ~cross:true in
  let per unit (name, f) = (name, fun () -> Printf.sprintf "%8.1f words/%s" (f ()) unit) in
  let words =
    [
      per "ack" words_9;
      per "ack" words_18;
      per "op" words_commit;
      per "op" words_tip;
      per "msg" words_same;
      per "msg" words_cross;
      words_trip;
    ]
  in
  let tests =
    [
      gtid_set_add;
      gtid_set_contains;
      log_append;
      crc32;
      entry_make;
      quorum_check;
      commit_point;
      lease_point;
      ack_9;
      ack_18;
      trip;
      tracebuf_record;
      log_cache_put_slice;
      heap_push_pop 1_000;
      heap_push_pop 300_000;
      timer_reset;
      send_same;
      send_cross;
      pipeline_group_drain;
      applier_drain;
      engine_commit;
      tip_add;
      histogram_record;
      vec_push;
      vec_get_random;
      log_store_append_read;
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
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
          | Some [ est ] -> (
            match List.assoc_opt name words with
            | Some words -> Printf.printf "  %-42s %12.1f ns/run %s\n%!" name est (words ())
            | None -> Printf.printf "  %-42s %12.1f ns/run\n%!" name est)
          | _ -> Printf.printf "  %-42s (no estimate)\n%!" name)
        analyzed)
    tests;
  Printf.printf "  %-42s %12d entries (%d live)\n%!" "sim.engine queue after timer resets"
    (Sim.Engine.queue_length timer_engine)
    (Sim.Engine.pending timer_engine);
  (* the read path's pinned figures, from the probes the read.alloc
     tests run *)
  Printf.printf "  %-42s %12.1f words/read\n%!" "read.lease read at dispatch (leader)"
    (Probe.Read_alloc.leader_read_words ());
  Printf.printf "  %-42s %12.1f words/read\n%!" "workload.generator lane open+settle"
    (Probe.Read_alloc.lane_words ())
