(* Allocation probes, one per pinned figure.  Each measures its figure
   the way its tier-1 pin checks it, and returns it with the round it
   measured, which [bench/main.exe -- micro] times with Bechamel beside
   the same figure.  A probe whose harness misbehaves (a peer misses a
   round, a message or a read goes missing) raises [Failure]. *)

(* Minor words allocated by [f], run [rounds] times (once by default).
   [Gc.minor_words] counts every word at once; the [Gc.quick_stat]
   figure the benchmark reads advances only at a minor collection. *)
let minor_words ?(rounds = 1) f =
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    f ()
  done;
  Gc.minor_words () -. before

(* [next ()] is the next of [make 1], [make 2], ..., made 65,536 ahead
   at a time, so a measured round does not count making them. *)
let supply make =
  let size = 1 lsl 16 in
  let made = ref [||] and base = ref 0 and next = ref size in
  fun () ->
    if !next = size then begin
      made := Array.init size (fun i -> make (!base + i + 1));
      base := !base + size;
      next := 0
    end;
    let x = !made.(!next) in
    incr next;
    x

(* ----- Raft: the leader ack and the AppendEntries round trip ----- *)

(* One round of a bare leader's acks: it appends one entry, every AE it
   sent is answered as a caught-up peer would, the engine runs a
   millisecond, and the leader takes the answers.  Returns the words the
   answers cost and how many there were. *)
let ack_round (h : Bare.leader) =
  let node = h.node in
  ignore (Raft.Node.client_append node Binlog.Entry.Noop);
  let acks =
    List.map
      (fun (dst, ae) -> (dst, Bare.ack ~peer:dst ~through:(Raft.Node.last_index node) ae))
      (List.of_seq (Queue.to_seq h.sent))
  in
  Queue.clear h.sent;
  Queue.clear h.hops;
  Sim.Engine.run_for h.engine Sim.Engine.ms;
  let words =
    minor_words (fun () ->
        List.iter (fun (src, msg) -> Raft.Node.handle_message node ~src msg) acks)
  in
  (words, List.length acks)

(* Mean words per ack of a leader of [Bare.ring regions] (proxying on)
   settling one round of acks per appended entry, over 200 rounds after
   50 of warm-up. *)
let leader_ack regions =
  let members = Bare.ring regions in
  let h = Bare.make_leader members in
  for _ = 1 to 50 do
    ignore (ack_round h)
  done;
  let words = ref 0.0 and acks = ref 0 in
  for _ = 1 to 200 do
    let w, n = ack_round h in
    words := !words +. w;
    acks := !acks + n
  done;
  if !acks <> 200 * (List.length members - 1) then
    failwith "ack probe: a peer missed a round";
  (!words /. float_of_int !acks, fun () -> ignore (ack_round h))

(* One AppendEntries round trip in the nine-member ring (proxying on),
   between the leader n10 and a real follower n11 in its region: the
   leader appends one entry and sends its AEs, the follower appends it
   and answers, and the leader takes the ack.  Every send is captured
   into preallocated slots, so what each step allocates is its own.
   The seven other peers are answered by hand off the clock. *)
type round_trip = {
  rt_engine : Sim.Engine.t;
  rt_leader : Raft.Node.t;
  rt_follower : Raft.Node.t;
  rt_dsts : string array; (* the leader's sends this round, by final dst *)
  rt_msgs : Raft.Message.t array;
  rt_sent : int ref;
  rt_reply : Raft.Message.t ref; (* the follower's last send *)
}

let make_round_trip () =
  let engine = Sim.Engine.create ~seed:1 () in
  let trace = Sim.Trace.create engine in
  let members = Bare.ring 3 in
  let config = Bare.config members in
  let nothing = Raft.Message.Timeout_now { term = 0 } in
  let dsts = Array.make 64 "" and msgs = Array.make 64 nothing in
  let sent = ref 0 and reply = ref nothing in
  let rec capture ~dst = function
    | Raft.Message.Proxied { next_hops; inner } ->
      capture ~dst:(List.nth next_hops (List.length next_hops - 1)) inner
    | msg ->
      dsts.(!sent) <- dst;
      msgs.(!sent) <- msg;
      incr sent
  in
  let leader = Bare.node ~engine ~trace ~send:capture ~config (List.hd members) in
  let follower =
    Bare.node ~engine ~trace ~config (List.nth members 1) ~send:(fun ~dst:_ msg ->
        reply := msg)
  in
  Raft.Node.set_force_election_quorum leader true;
  Raft.Node.trigger_election leader;
  assert (Raft.Node.is_leader leader);
  {
    rt_engine = engine;
    rt_leader = leader;
    rt_follower = follower;
    rt_dsts = dsts;
    rt_msgs = msgs;
    rt_sent = sent;
    rt_reply = reply;
  }

(* Off the clock: answer every captured AE as a caught-up peer would,
   the follower's through the follower itself, until nothing is left. *)
let rec rt_settle rt =
  if !(rt.rt_sent) > 0 then begin
    let msgs = List.init !(rt.rt_sent) (fun i -> (rt.rt_dsts.(i), rt.rt_msgs.(i))) in
    rt.rt_sent := 0;
    List.iter
      (fun (dst, msg) ->
        match msg with
        | Raft.Message.Append_entries _ when dst = "n11" ->
          Raft.Node.handle_message rt.rt_follower ~src:"n10" msg;
          Raft.Node.handle_message rt.rt_leader ~src:dst !(rt.rt_reply)
        | Raft.Message.Append_entries ae ->
          Raft.Node.handle_message rt.rt_leader ~src:dst
            (Bare.ack ~peer:dst ~through:(Raft.Node.last_index rt.rt_leader) ae)
        | _ -> ())
      msgs;
    rt_settle rt
  end

(* One measured round: the leader's append and sends, the follower's
   append and answer, and the leader's take of that answer; returns
   their words and the AEs sent. *)
let rt_round rt =
  rt_settle rt;
  Sim.Engine.run_for rt.rt_engine Sim.Engine.ms;
  rt_settle rt;
  let send =
    minor_words (fun () ->
        ignore (Raft.Node.client_append rt.rt_leader Binlog.Entry.Noop))
  in
  let sent = !(rt.rt_sent) in
  let k = ref (-1) in
  for i = 0 to sent - 1 do
    if rt.rt_dsts.(i) = "n11" then k := i
  done;
  let ae = rt.rt_msgs.(!k) in
  rt.rt_dsts.(!k) <- "";
  let follower =
    minor_words (fun () -> Raft.Node.handle_message rt.rt_follower ~src:"n10" ae)
  in
  let reply = !(rt.rt_reply) in
  let ack =
    minor_words (fun () -> Raft.Node.handle_message rt.rt_leader ~src:"n11" reply)
  in
  (match reply with
  | Raft.Message.Append_entries_response r -> assert r.success
  | _ -> assert false);
  (send, follower, ack, sent)

(* Mean words per AE of the leader's sends, and per round of the
   follower's append and of the leader's ack, over 200 rounds after 50
   of warm-up. *)
let rt_measure rt =
  for _ = 1 to 50 do
    ignore (rt_round rt)
  done;
  let send = ref 0.0 and follower = ref 0.0 and ack = ref 0.0 and aes = ref 0 in
  let rounds = 200 in
  for _ = 1 to rounds do
    let ws, wf, wa, sent = rt_round rt in
    send := !send +. ws;
    follower := !follower +. wf;
    ack := !ack +. wa;
    aes := !aes + sent
  done;
  if !aes <> rounds * 8 then failwith "round-trip probe: a round missed a peer's AE";
  let r = float_of_int rounds in
  (!send /. float_of_int !aes, !follower /. r, !ack /. r)

(* The round trip's words per AE sent, per follower append and per
   ack. *)
let round_trip () =
  let rt = make_round_trip () in
  (rt_measure rt, fun () -> ignore (rt_round rt))

(* ----- the simulated network ----- *)

type link = Same_region | Pinned_link | Cross_region

let link_name = function
  | Same_region -> "same region"
  | Pinned_link -> "pinned link"
  | Cross_region -> "cross region"

(* Mean words of one fault-free message from a to b over the default
   latency model, sent and run to its delivery: a in r1 sends to b in
   r1, on a link pinned at 100 µs for [Pinned_link], or to c in r2.
   Each measured round sends a batch of 100 and runs the engine once,
   and the run's boxed horizon (2 words) is counted apart; 200 rounds
   after one of warm-up.  The returned round sends one message and
   runs it to its delivery. *)
let send_deliver link =
  let engine = Sim.Engine.create () in
  let topo = Sim.Topology.create () in
  Sim.Topology.add_node topo ~id:"a" ~region:"r1";
  Sim.Topology.add_node topo ~id:"b" ~region:"r1";
  Sim.Topology.add_node topo ~id:"c" ~region:"r2";
  let net = Sim.Network.create engine topo ~latency:Sim.Latency.default () in
  let dst, horizon = if link = Cross_region then ("c", 100_000.0) else ("b", 1_000.0) in
  let got = ref 0 in
  Sim.Network.register net dst (fun ~src:_ (_ : int) -> incr got);
  if link = Pinned_link then
    Sim.Network.set_link_latency net ~a:"a" ~b:dst ~latency:100.0;
  let send_batch batch () =
    for i = 1 to batch do
      Sim.Network.send net ~src:"a" ~dst ~size:100 i
    done;
    Sim.Engine.run_for engine horizon
  in
  let batch = 100 and rounds = 200 in
  send_batch batch ();
  let words = minor_words ~rounds (send_batch batch) in
  if !got <> (rounds + 1) * batch then
    failwith "network probe: a message was not delivered";
  ((words -. (2.0 *. float_of_int rounds)) /. float_of_int (rounds * batch), send_batch 1)

(* ----- storage: the engine's commit path ----- *)

let gtid gno = Binlog.Gtid.make ~source:"srv1" ~gno

(* Mean words of a steady-state one-row write prepared and committed in
   the engine, over 10k after one. *)
let prepare_commit () =
  let e = Storage.Engine.create () in
  let events =
    [
      Binlog.Event.make
        (Binlog.Event.Write_rows
           {
             table = "sbtest";
             ops = [ Binlog.Event.Insert { key = "row-1"; value = "v" } ];
           });
    ]
  in
  let gtid = supply gtid
  and opid = supply (fun index -> Binlog.Opid.make ~term:1 ~index) in
  let round () =
    let p = Storage.Engine.prepare e ~gtid:(gtid ()) ~events in
    Storage.Engine.commit_prepared e p ~opid:(opid ())
  in
  round ();
  let n = 10_000 in
  (minor_words ~rounds:n round /. float_of_int n, round)

(* Mean words of a binlog GTID set growing by the next gno of its open
   tip, over 998 adds after two. *)
let tip_add () =
  let acc = Binlog.Gtid_set.Acc.create () in
  let gtid = supply gtid in
  let round () = Binlog.Gtid_set.Acc.add acc (gtid ()) in
  round ();
  round ();
  let n = 998 in
  (minor_words ~rounds:n round /. float_of_int n, round)

(* ----- the read path ----- *)

(* Mean words per linearizable [Read_request] that a lease-holding
   leader answers at dispatch: everything its handler allocates from the
   request's arrival to the [Read_reply]'s send.  The request messages
   are built beforehand, and the client is cut off from the ring, so the
   network drops each reply at the send instead of delivering it.  The
   lease is kept valid by running the cluster between reads, outside
   the measured calls.  200 reads of warm-up, then 1k.  The returned
   round is one read and the run after it. *)
let leader_read () =
  let cluster =
    Myraft.Cluster.create ~seed:1 ~replicaset:"rs-read-alloc"
      ~members:(Myraft.Cluster.single_region_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  Myraft.Cluster.run_for cluster Sim.Engine.s;
  let leader =
    match Myraft.Cluster.server cluster "mysql1" with
    | Some s -> s
    | None -> failwith "read probe: no mysql1"
  in
  let written = ref false in
  Myraft.Server.submit_write leader ~table:"t"
    ~ops:[ Binlog.Event.Insert { key = "k"; value = "v" } ]
    ~reply:(fun _ -> written := true);
  while not !written do
    Myraft.Cluster.run_for cluster Sim.Engine.ms
  done;
  Myraft.Cluster.run_for cluster (10.0 *. Sim.Engine.ms);
  Myraft.Cluster.register_client cluster ~id:"c1" ~region:"r1" ~handler:(fun ~src:_ _ -> ());
  Sim.Network.isolate_node (Myraft.Cluster.network cluster) "c1";
  let request read_id =
    Myraft.Wire.Read_request
      {
        Myraft.Wire.read_id;
        level = Read.Level.Linearizable;
        read_table = "t";
        key = "k";
        read_client = "c1";
      }
  in
  let served () =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter (Myraft.Server.metrics leader) "read.lease_served")
  in
  let warmup = 200 and n = 1_000 in
  let requests = Array.init (warmup + n) (fun i -> request (i + 1)) in
  let read msg = Myraft.Server.handle_message leader ~src:"c1" msg in
  let run () = Myraft.Cluster.run_for cluster (100.0 *. Sim.Engine.us) in
  for i = 0 to warmup - 1 do
    read requests.(i);
    run ()
  done;
  let before = served () in
  let words = ref 0.0 in
  for i = warmup to warmup + n - 1 do
    words := !words +. minor_words (fun () -> read requests.(i));
    run ()
  done;
  if served () - before <> n then failwith "read probe: a read missed the lease";
  let next = ref (warmup + n) in
  let round () =
    incr next;
    read (request !next);
    run ()
  in
  (!words /. float_of_int n, round)

(* Mean words per read a workload generator opens and settles: one
   [issue_read] and its reply, over a stub backend whose send only notes
   the read id.  The engine never runs, so the lane's timer, armed by
   the first read, stays armed and no read times out.  200 reads of
   warm-up, then 1k. *)
let lane () =
  let engine = Sim.Engine.create ~seed:1 () in
  let on_read_reply = ref (fun ~read_id:_ ~outcome:_ -> ()) and last = ref 0 in
  let backend =
    {
      Workload.Backend.engine;
      label = "probe";
      register_client =
        (fun ~id:_ ~region:_ ~on_reply:_ ~on_read_reply:f -> on_read_reply := f);
      send_write = (fun ~client:_ ~write_id:_ ~table:_ ~ops:_ -> true);
      send_read =
        (fun ~client:_ ~read_id ~level:_ ~table:_ ~key:_ ~target:_ ->
          last := read_id;
          true);
      read_targets = (fun () -> []);
      set_client_latency = (fun ~client:_ ~latency:_ -> ());
      member_ids = (fun () -> []);
    }
  in
  let gen =
    Workload.Generator.create ~backend ~client_id:"c1" ~region:"r1" ~read_ratio:1.0
      ~read_level:Read.Level.Linearizable ()
  in
  let outcome = Workload.Backend.Read_value None in
  let round () =
    Workload.Generator.issue_read gen ~table:"t" ~key:"k";
    !on_read_reply ~read_id:!last ~outcome
  in
  let warmup = 200 and n = 1_000 in
  for _ = 1 to warmup do
    round ()
  done;
  let words = minor_words ~rounds:n round in
  let stats = Workload.Generator.stats gen in
  if stats.Workload.Generator.reads_ok <> warmup + n then
    failwith "read probe: a read did not settle";
  (words /. float_of_int n, round)

(* ----- retained memory: the primary's log and the registries ----- *)

(* A bootstrapped mysql1+lt1a+lt1b ring whose generator issues one-row
   writes of a 300-byte payload, one at a time, warmed up until mysql1's
   log index reaches 4,096.  [per_write ring figure] is the growth of
   [figure ()] over 4,096 more writes, per write, so the measured writes
   open exactly one more of the log's 4,096-slot chunks.  [write] runs
   one write to its commit and fails if it did not commit. *)
type write_ring = {
  cluster : Myraft.Cluster.t;
  log : Binlog.Log_store.t;
  write : unit -> unit;
}

let write_ring () =
  let cluster =
    Myraft.Cluster.create ~seed:1 ~replicaset:"rs-retain"
      ~members:
        Myraft.Cluster.[ mysql "mysql1" "r1"; logtailer "lt1a" "r1"; logtailer "lt1b" "r1" ]
      ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  Myraft.Cluster.run_for cluster Sim.Engine.s;
  let log =
    match Myraft.Cluster.server cluster "mysql1" with
    | Some s -> Myraft.Server.log s
    | None -> failwith "retention probe: no mysql1"
  in
  let gen =
    Workload.Generator.create ~backend:(Workload.Backend.myraft cluster) ~client_id:"c1"
      ~region:"r1" ()
  in
  let issued = ref 0 and settled = ref 0 and committed = ref 0 in
  let k ok =
    incr settled;
    if ok then incr committed
  in
  let write () =
    incr issued;
    Workload.Generator.issue_op gen ~k ~table:"sbtest"
      ~key:("row-" ^ Int.to_string !issued)
      ~value_size:300;
    while !settled < !issued do
      Myraft.Cluster.run_for cluster (50.0 *. Sim.Engine.us)
    done;
    if !committed <> !issued then failwith "retention probe: a write did not commit"
  in
  while Binlog.Log_store.last_index log < 4_096 do
    write ()
  done;
  { cluster; log; write }

let per_write ring figure =
  let before = figure () and n = 4_096 in
  for _ = 1 to n do
    ring.write ()
  done;
  (figure () -. before) /. float_of_int n

(* Words of mysql1's log store retained per committed write, measured as
   the growth of [Obj.reachable_words] of the log.  The returned round is
   one write run to its commit. *)
let retained_per_write () =
  let ring = write_ring () in
  let words () = float_of_int (Obj.reachable_words (Obj.repr ring.log)) in
  (per_write ring words, ring.write)

(* Histogram samples the ring's registries retain per committed write:
   the growth of [Stats.Histogram.count] summed over every histogram of
   every member's registry. *)
let samples_per_write () =
  let ring = write_ring () in
  let count acc (_, h) = acc + Stats.Histogram.count h in
  let node acc id =
    match Myraft.Cluster.metrics_of ring.cluster id with
    | Some m ->
      let snap = Obs.Metrics.snapshot m in
      List.fold_left count acc snap.Obs.Metrics.snap_histograms
    | None -> acc
  in
  let samples () = float_of_int (List.fold_left node 0 [ "mysql1"; "lt1a"; "lt1b" ]) in
  (per_write ring samples, ring.write)
