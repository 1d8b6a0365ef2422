(* Allocation probes for the read path, shared by the [read.alloc] pins
   in test_read.ml and by [bench/main.exe -- micro]. *)

let minor_words f =
  let before = Gc.minor_words () in
  f ();
  Gc.minor_words () -. before

(* Mean words per linearizable [Read_request] that a lease-holding
   leader answers at dispatch: everything its handler allocates from the
   request's arrival to the [Read_reply]'s send.  The request messages
   are built beforehand, and the client is cut off from the ring, so the
   network drops each reply at the send instead of delivering it.  The
   lease is kept valid by running the cluster between reads, outside
   the measured calls.  200 reads of warm-up, then [n]. *)
let leader_read_words ?(n = 1_000) () =
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
  let warmup = 200 in
  let requests =
    Array.init (warmup + n) (fun i ->
        Myraft.Wire.Read_request
          {
            Myraft.Wire.read_id = i + 1;
            level = Read.Level.Linearizable;
            read_table = "t";
            key = "k";
            read_client = "c1";
          })
  in
  let served () =
    Obs.Metrics.counter_value
      (Obs.Metrics.counter (Myraft.Server.metrics leader) "read.lease_served")
  in
  let read i = Myraft.Server.handle_message leader ~src:"c1" requests.(i) in
  for i = 0 to warmup - 1 do
    read i;
    Myraft.Cluster.run_for cluster (100.0 *. Sim.Engine.us)
  done;
  let before = served () in
  let words = ref 0.0 in
  for i = warmup to warmup + n - 1 do
    words := !words +. minor_words (fun () -> read i);
    Myraft.Cluster.run_for cluster (100.0 *. Sim.Engine.us)
  done;
  if served () - before <> n then failwith "read probe: a read missed the lease";
  !words /. float_of_int n

(* Mean words per read a workload generator opens and settles: one
   [issue_read] and its reply, over a stub backend whose send only notes
   the read id.  The engine never runs, so the lane's timer, armed by
   the first read, stays armed and no read times out.  200 reads of
   warm-up, then [n]. *)
let lane_words ?(n = 1_000) () =
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
  for _ = 1 to 200 do
    round ()
  done;
  let words = minor_words (fun () -> for _ = 1 to n do round () done) in
  let stats = Workload.Generator.stats gen in
  if stats.Workload.Generator.reads_ok <> 200 + n then failwith "read probe: a read did not settle";
  words /. float_of_int n
