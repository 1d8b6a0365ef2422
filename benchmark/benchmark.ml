(* The repository benchmark: four workloads on bench-built clusters, two
   ledgers per run.

   The virtual ledger is what the simulated cluster achieves (commit
   throughput and latency, the highest open-loop rate under a latency
   limit, failover downtime); it is deterministic per seed.  The real
   ledger is what this OCaml program spends to simulate it: wall time,
   minor-heap words and peak heap per settled client operation.

   Every cluster is built through [Myraft.Cluster.create ?shared] over an
   engine, topology and network the benchmark owns, with a transport the
   benchmark builds.  Untraced, the transport is the same closures a
   standalone cluster builds over its own network; traced, each send and
   each delivery records a span (see {!Spans}).  Simulated time advances
   in 10 ms chunks, between which the traced run polls GC events. *)

let s = Sim.Engine.s

let ms = Sim.Engine.ms

let us = Sim.Engine.us

let chunk = 10.0 *. ms

(* Clients in r1 reach the ring through the in-region latency model,
   90-180 µs one-way jittered per message: 270 µs round trip on average. *)
let client_rtt_us = 270.0

(* The per-experiment benches pin clients 100 µs one-way instead. *)
let bench_client_latency = 100.0 *. us

(* ----- span kinds ----- *)

(* Message kinds, by [Wire.t] and [Raft.Message.t] constructor. *)
let msg_kinds = [| "write_req"; "read_req"; "ae"; "ae_resp"; "other" |]

let k_send = 0

let k_server = 1 (* + message kind *)

let k_tailer_ae = 6

let k_tailer_other = 7

let k_client = 8

let k_poll = 9

let span_names =
  Array.concat
    [
      [| "sim.network.send" |];
      Array.map (fun k -> "core.server.handle." ^ k) msg_kinds;
      [|
        "core.logtailer.handle.ae";
        "core.logtailer.handle.other";
        "workload.client.handle";
        "trace.poll";
      |];
    ]

let rec raft_kind (m : Raft.Message.t) =
  match m with
  | Append_entries _ -> 2
  | Append_entries_response _ -> 3
  | Proxied { inner; _ } -> raft_kind inner
  | _ -> 4

let msg_kind (m : Myraft.Wire.t) =
  match m with
  | Write_request _ -> 0
  | Read_request _ -> 1
  | Raft_msg r -> raft_kind r
  | Write_reply _ | Read_reply _ -> 4

(* Correlation key of a span: write/read id for client traffic, the AE's
   prev_opid index (a response's last appended index) for replication. *)
let rec raft_key (m : Raft.Message.t) =
  match m with
  | Append_entries ae -> Binlog.Opid.index ae.prev_opid
  | Append_entries_response r -> r.last_appended_index
  | Proxied { inner; _ } -> raft_key inner
  | _ -> 0

let key_of (m : Myraft.Wire.t) =
  match m with
  | Write_request w -> w.write_id
  | Write_reply { write_id; _ } -> write_id
  | Read_request r -> r.read_id
  | Read_reply { read_id; _ } -> read_id
  | Raft_msg r -> raft_key r

(* ----- clusters ----- *)

type world = {
  cluster : Myraft.Cluster.t;
  engine : Sim.Engine.t;
  network : Myraft.Wire.t Sim.Network.t;
}

let transport ~topology ~network ~spans ~cluster : Myraft.Cluster.transport =
  let send ~src ~dst msg =
    Sim.Network.send network ~src ~dst ~size:(Myraft.Wire.size msg) msg
  in
  let plain =
    {
      Myraft.Cluster.tr_send = send;
      tr_register = (fun id handler -> Sim.Network.register network id handler);
      tr_add_node =
        (fun ~id ~region ->
          if not (Sim.Topology.mem topology id) then
            Sim.Topology.add_node topology ~id ~region);
      tr_set_down = (fun id -> Sim.Network.set_down network id);
      tr_set_up = (fun id -> Sim.Network.set_up network id);
      tr_isolate = (fun id -> Sim.Network.isolate_node network id);
      tr_heal = (fun id -> Sim.Network.heal_node network id);
      tr_set_link_latency =
        (fun ~a ~b ~latency -> Sim.Network.set_link_latency network ~a ~b ~latency);
    }
  in
  match spans with
  | None -> plain
  | Some sp ->
    let kind_at id msg =
      match Option.bind !cluster (fun c -> Myraft.Cluster.node c id) with
      | Some (Myraft.Cluster.Mysql_node _) -> k_server + msg_kind msg
      | Some (Myraft.Cluster.Tailer_node _) ->
        if msg_kind msg = 2 then k_tailer_ae else k_tailer_other
      | None -> k_client
    in
    {
      plain with
      tr_send =
        (fun ~src ~dst msg ->
          Spans.enter sp k_send ~key:(key_of msg);
          send ~src ~dst msg;
          Spans.leave sp);
      tr_register =
        (fun id handler ->
          Sim.Network.register network id (fun ~src msg ->
              Spans.enter sp (kind_at id msg) ~key:(key_of msg);
              handler ~src msg;
              Spans.leave sp));
    }

(* Engine, topology, network, trace and discovery are created in the
   order a standalone [Cluster.create] creates them, so a seed draws the
   same random streams either way. *)
let build ~seed ~members ~replicaset ~links ~spans =
  let engine = Sim.Engine.create ~seed () in
  let topology = Sim.Topology.create () in
  List.iter
    (fun (m : Myraft.Cluster.member_spec) ->
      Sim.Topology.add_node topology ~id:m.spec_id ~region:m.spec_region)
    members;
  let network = Sim.Network.create engine topology () in
  let trace = Sim.Trace.create engine in
  let discovery = Myraft.Service_discovery.create engine in
  let cell = ref None in
  let shared =
    {
      Myraft.Cluster.sh_engine = engine;
      sh_trace = trace;
      sh_discovery = discovery;
      sh_tracebuf = Obs.Tracebuf.create ();
      sh_group = 0;
      sh_clock_of = (fun _ -> None);
      sh_transport = transport ~topology ~network ~spans ~cluster:cell;
    }
  in
  let cluster = Myraft.Cluster.create ~shared ~replicaset ~members () in
  cell := Some cluster;
  List.iter
    (fun (a, b, latency) -> Myraft.Cluster.set_link_latency cluster ~a ~b ~latency)
    links;
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  { cluster; engine; network }

(* The §6.1 topology with the mysql1<->lt1a/lt1b quorum links pinned. *)
let paper_world ~seed ~replicaset ~one_way ~spans =
  build ~seed ~members:(Myraft.Cluster.paper_members ()) ~replicaset
    ~links:[ ("mysql1", "lt1a", one_way); ("mysql1", "lt1b", one_way) ]
    ~spans

(* Table 2's trial ring: 3 regions x (mysql + 2 logtailers). *)
let ring_members () =
  List.concat_map
    (fun i ->
      let r = Printf.sprintf "r%d" i in
      [
        Myraft.Cluster.mysql (Printf.sprintf "mysql%d" i) r;
        Myraft.Cluster.logtailer (Printf.sprintf "lt%da" i) r;
        Myraft.Cluster.logtailer (Printf.sprintf "lt%db" i) r;
      ])
    [ 1; 2; 3 ]

(* Every GTID acknowledged to a generator client joins [acked]. *)
let acking_backend cluster acked =
  let b = Workload.Backend.myraft cluster in
  {
    b with
    Workload.Backend.register_client =
      (fun ~id ~region ~on_reply ~on_read_reply ->
        b.register_client ~id ~region ~on_read_reply ~on_reply:(fun ~write_id ~ok ~gtid ->
            (match gtid with
            | Some g when ok -> acked := Binlog.Gtid_set.add !acked g
            | _ -> ());
            on_reply ~write_id ~ok ~gtid));
  }

(* ----- the ledger of one run ----- *)

(* Registry metrics the per-layer figures read, summed over every node. *)
let counter_names =
  [
    "binlog.fsyncs"; "binlog.bytes_appended"; "server.writes_committed";
    "server.writes_rejected"; "applier.dep_stalls"; "raft.ae_sent"; "raft.retransmits";
    "raft.nacks"; "raft.elections_started"; "raft.elections_won"; "raft.log_cache.hits";
    "raft.log_cache.disk_reads"; "raft.heartbeats_sent"; "raft.lease_extensions";
    "read.lease_served"; "read.quorum_served"; "raft.readindex_rounds";
  ]

let hist_names =
  [
    "pipeline.flush_us"; "pipeline.engine_commit_us"; "pipeline.consensus_wait_us";
    "pipeline.group_size"; "pipeline.commit_cycle_txns"; "binlog.fsync_batch_entries";
    "raft.ae_batch_bytes"; "raft.election_latency_us";
  ]

type ledger = {
  mutable ops : int;  (** client operations settled inside measured windows *)
  mutable failed_ops : int;  (** of which rejected or timed out *)
  mutable reads : int;
  mutable wall : int;  (** ns *)
  mutable virt : float;  (** µs of simulated time measured *)
  mutable minor_words : float;
  mutable minor_gcs : int;
  mutable major_gcs : int;
  mutable events : int;
  mutable msgs : int;
  mutable bytes : int;
  mutable xbytes : int;
  mutable setups : float list;  (** seconds per create + bootstrap *)
  mutable peak_words : int;  (** top heap at the end of the last window *)
  commit_lat : Stats.Histogram.t;  (** successful writes settled in windows, µs *)
  (* traced run only *)
  span_self : int array;
  span_calls : int array;
  mutable span_top : int;
  mutable gc_ns : int;
  mutable gc_lost : int;
  counters : (string, int) Hashtbl.t;
  hists : (string, Stats.Histogram.t) Hashtbl.t;
  mutable lag_max : float;
}

let new_ledger () =
  {
    ops = 0;
    failed_ops = 0;
    reads = 0;
    wall = 0;
    virt = 0.0;
    minor_words = 0.0;
    minor_gcs = 0;
    major_gcs = 0;
    events = 0;
    msgs = 0;
    bytes = 0;
    xbytes = 0;
    setups = [];
    peak_words = 0;
    commit_lat = Stats.Histogram.create ();
    span_self = Array.make (Array.length span_names) 0;
    span_calls = Array.make (Array.length span_names) 0;
    span_top = 0;
    gc_ns = 0;
    gc_lost = 0;
    counters = Hashtbl.create 32;
    hists = Hashtbl.create 16;
    lag_max = 0.0;
  }

(* Tracing state of one run: spans plus the GC clock. *)
type tracer = { spans : Spans.t; gc : Spans.Gc_clock.t }

(* Collect the previous cluster's garbage first, so each set-up starts
   from the same heap state and the peak heap is one cluster's. *)
let setup ledger f =
  Gc.full_major ();
  let t0 = Spans.now_ns () in
  let w = f () in
  ledger.setups <- (float_of_int (Spans.now_ns () - t0) /. 1e9) :: ledger.setups;
  w

(* Samples recorded after the first [skip] of [h], as a new histogram. *)
let tail_of h ~skip =
  let out = Stats.Histogram.create () in
  let i = ref 0 in
  Stats.Histogram.iter h (fun v ->
      if !i >= skip then Stats.Histogram.record out v;
      incr i);
  out

let node_snapshots w =
  List.filter_map
    (fun id -> Option.map Obs.Metrics.snapshot (Myraft.Cluster.metrics_of w.cluster id))
    (Myraft.Cluster.member_ids w.cluster)

let snap_hist_count snap name =
  match Obs.Metrics.histogram_of snap name with
  | Some h -> Stats.Histogram.count h
  | None -> 0

let add_hist ledger name h =
  let into =
    match Hashtbl.find_opt ledger.hists name with
    | Some x -> x
    | None ->
      let x = Stats.Histogram.create () in
      Hashtbl.replace ledger.hists name x;
      x
  in
  Stats.Histogram.iter h (Stats.Histogram.record into)

(* Client-side counters of one generator, as (settled, failed, reads). *)
let settled (st : Workload.Generator.stats) =
  let failed = st.rejected + st.timed_out + st.reads_rejected + st.reads_timed_out in
  let reads = st.reads_ok + st.reads_rejected + st.reads_timed_out in
  (st.committed + st.reads_ok + failed, failed, reads)

(* Advance simulated time to [until] in [chunk] steps, stopping early
   once [stop ()] holds. *)
let advance ?(stop = fun () -> false) w ~until =
  let rec loop () =
    let now = Sim.Engine.now w.engine in
    if now < until && not (stop ()) then begin
      Sim.Engine.run_until w.engine (Float.min until (now +. chunk));
      loop ()
    end
  in
  loop ()

(* One measured window, advanced like [advance]; [clients ()] returns the
   summed (settled, failed, reads) client counters.  The traced run also
   polls GC events and samples the replicas' applier lag between chunks,
   and diffs every node's registry across the window. *)
let window ?tracer ?(stop = fun () -> false) ledger w ~clients ~until =
  let before = match tracer with Some _ -> node_snapshots w | None -> [] in
  let lag_gauges =
    match tracer with
    | Some _ ->
      List.map
        (fun srv -> Obs.Metrics.gauge (Myraft.Server.metrics srv) "applier.lag")
        (Myraft.Cluster.servers w.cluster)
    | None -> []
  in
  let ops0, failed0, reads0 = clients () in
  let net0 =
    ( Sim.Network.total_messages w.network,
      Sim.Network.total_bytes w.network,
      Sim.Network.cross_region_bytes w.network )
  in
  let events0 = Sim.Engine.executed_events w.engine in
  let virt0 = Sim.Engine.now w.engine in
  Option.iter
    (fun tr ->
      Spans.reset tr.spans;
      Spans.Gc_clock.reset tr.gc)
    tracer;
  let gc0 = Gc.quick_stat () in
  let t0 = Spans.now_ns () in
  let rec loop () =
    let now = Sim.Engine.now w.engine in
    if now < until && not (stop ()) then begin
      Sim.Engine.run_until w.engine (Float.min until (now +. chunk));
      Option.iter
        (fun tr ->
          Spans.enter tr.spans k_poll ~key:0;
          Spans.Gc_clock.poll tr.gc;
          List.iter
            (fun g ->
              ledger.lag_max <- Float.max ledger.lag_max (Obs.Metrics.gauge_value g))
            lag_gauges;
          Spans.leave tr.spans)
        tracer;
      loop ()
    end
  in
  loop ();
  let t1 = Spans.now_ns () in
  let gc1 = Gc.quick_stat () in
  ledger.peak_words <- gc1.Gc.top_heap_words;
  ledger.wall <- ledger.wall + (t1 - t0);
  ledger.minor_words <- ledger.minor_words +. (gc1.Gc.minor_words -. gc0.Gc.minor_words);
  ledger.minor_gcs <-
    ledger.minor_gcs + (gc1.Gc.minor_collections - gc0.Gc.minor_collections);
  ledger.major_gcs <-
    ledger.major_gcs + (gc1.Gc.major_collections - gc0.Gc.major_collections);
  ledger.events <- ledger.events + (Sim.Engine.executed_events w.engine - events0);
  ledger.virt <- ledger.virt +. (Sim.Engine.now w.engine -. virt0);
  let m0, b0, x0 = net0 in
  ledger.msgs <- ledger.msgs + (Sim.Network.total_messages w.network - m0);
  ledger.bytes <- ledger.bytes + (Sim.Network.total_bytes w.network - b0);
  ledger.xbytes <- ledger.xbytes + (Sim.Network.cross_region_bytes w.network - x0);
  let ops1, failed1, reads1 = clients () in
  ledger.ops <- ledger.ops + (ops1 - ops0);
  ledger.failed_ops <- ledger.failed_ops + (failed1 - failed0);
  ledger.reads <- ledger.reads + (reads1 - reads0);
  Option.iter
    (fun tr ->
      Spans.Gc_clock.poll tr.gc;
      ledger.gc_ns <- ledger.gc_ns + Spans.Gc_clock.total_ns tr.gc;
      ledger.gc_lost <- ledger.gc_lost + Spans.Gc_clock.lost tr.gc;
      Array.iteri
        (fun k _ ->
          ledger.span_self.(k) <- ledger.span_self.(k) + Spans.self_ns tr.spans k;
          ledger.span_calls.(k) <- ledger.span_calls.(k) + Spans.calls tr.spans k)
        span_names;
      ledger.span_top <- ledger.span_top + Spans.top_ns tr.spans;
      let find node =
        List.find_opt (fun (sn : Obs.Metrics.snapshot) -> sn.snap_node = node) before
      in
      List.iter
        (fun (a : Obs.Metrics.snapshot) ->
          let b = find a.snap_node in
          List.iter
            (fun name ->
              let v0 = match b with Some b -> Obs.Metrics.counter_of b name | None -> 0 in
              let d = Obs.Metrics.counter_of a name - v0 in
              Hashtbl.replace ledger.counters name
                (d + Option.value (Hashtbl.find_opt ledger.counters name) ~default:0))
            counter_names;
          List.iter
            (fun name ->
              match Obs.Metrics.histogram_of a name with
              | None -> ()
              | Some h ->
                let skip = match b with Some b -> snap_hist_count b name | None -> 0 in
                add_hist ledger name (tail_of h ~skip))
            hist_names)
        (node_snapshots w))
    tracer

(* ----- percentiles ----- *)

(* Nearest-rank percentile over [n] samples of which [misses] count as
   infinitely late (failed, or never answered); [h] holds the rest. *)
let pct_with_misses h ~misses p =
  let ok = Stats.Histogram.count h in
  let n = ok + misses in
  if n = 0 then nan
  else
    let rank = max 1 (int_of_float (ceil (p /. 100.0 *. float_of_int n))) in
    if rank > ok then infinity
    else begin
      let a = Array.make ok 0.0 and i = ref 0 in
      Stats.Histogram.iter h (fun v ->
          a.(!i) <- v;
          incr i);
      Array.sort compare a;
      a.(rank - 1)
    end

let pct h p = if Stats.Histogram.is_empty h then nan else Stats.Histogram.percentile h p

(* ----- results ----- *)

(* A virtual figure: name, value, unit and the sample count behind a
   percentile (0 for non-percentiles).  Deterministic per seed; the
   traced run must reproduce every one exactly. *)
type figure = { f_name : string; f_value : float; f_unit : string; f_n : int }

let fig ?(n = 0) f_name f_unit f_value = { f_name; f_value; f_unit; f_n = n }

type outcome = {
  ledger : ledger;
  figures : figure list;  (** printed, and compared traced vs untraced *)
  goodput : float;  (** the workload's headline rate, ops per virtual second *)
  p50_ms : float;  (** the workload's headline latency median *)
  tail_ms : float;  (** ... and its highest percentile with >= 10 samples beyond *)
  checks : (string * bool * string) list;
  attempted : int;
  failed : int;
}

(* Durability and §5.1 consistency after a workload or trial. *)
let final_checks w ~acked =
  let consistency =
    match Workload.Failure_injection.consistency_check w.cluster with
    | Ok n -> ("consistency", true, Printf.sprintf "%d committed txns agree" n)
    | Error e -> ("consistency", false, e)
  in
  let durability =
    match Myraft.Cluster.primary w.cluster with
    | None -> ("durability", false, "no primary at the end")
    | Some p ->
      let executed = Myraft.Server.gtid_executed p in
      let lost =
        Binlog.Gtid_set.fold_gtids acked ~init:0 (fun n g ->
            if Binlog.Gtid_set.contains executed g then n else n + 1)
      in
      ( "durability",
        lost = 0,
        Printf.sprintf "%d acknowledged GTIDs, %d missing on %s"
          (Binlog.Gtid_set.cardinal acked) lost (Myraft.Server.id p) )
  in
  [ consistency; durability ]

(* ----- closed-loop workloads: lan-saturate, read-lease ----- *)

let setup_repeats = 25

let key_space = 100_000

let row i = Printf.sprintf "row-%d" i

let value_size rng =
  max 16 (int_of_float (Sim.Rng.lognormal rng ~mu:(log 300.0) ~sigma:0.2))

(* Closed-loop client sessions.  Each waits an exponential think time
   after its previous op settles: with a fixed one, sessions that
   settled in one commit group re-issue in lock-step, and depending on
   the seed the pipeline locks into one of two group phases some 12%
   apart in throughput.  Session i of n writes only rows congruent to i
   modulo n, so no two in-flight writes contend for a row lock and no
   write is refused; reads pick any row. *)
let think = 500.0 *. us

let start_sessions w gen ~threads ~read_ratio ~running =
  let rng = Sim.Rng.split (Sim.Engine.rng w.engine) in
  let rows = key_space / threads in
  let rec session i n () =
    if !running then begin
      let next _ =
        ignore
          (Sim.Engine.schedule w.engine ~delay:(Sim.Rng.exponential rng ~mean:think)
             (session i (n + 1)))
      in
      if read_ratio > 0.0 && Sim.Rng.float rng < read_ratio then
        Workload.Generator.issue_read gen ~k:next ~table:"sbtest"
          ~key:(row (Sim.Rng.int rng key_space))
      else
        Workload.Generator.issue_op gen ~k:next ~table:"sbtest"
          ~key:(row (i + (threads * (n mod rows))))
          ~value_size:(value_size rng)
    end
  in
  for i = 0 to threads - 1 do
    ignore
      (Sim.Engine.schedule w.engine ~delay:(Sim.Rng.uniform rng ~lo:0.0 ~hi:ms)
         (session i 0))
  done

type closed = {
  c_replicaset : string;
  c_client : string;
  c_one_way : float;  (** mysql1 <-> r1 logtailers *)
  c_threads : int;
  c_read_ratio : float;
}

let lan_saturate =
  {
    c_replicaset = "rs-pipeline";
    c_client = "pipe-load";
    c_one_way = 1.0 *. ms;
    c_threads = 768;
    c_read_ratio = 0.0;
  }

let read_lease =
  {
    c_replicaset = "rs-read";
    c_client = "read-load";
    c_one_way = 5.0 *. ms;
    c_threads = 256;
    c_read_ratio = 0.9;
  }

(* [uniform] runs the traffic of the per-experiment pipeline and read
   benches instead, for the reproduction anchors: the generator's own
   closed loop (uniform keys, lock-conflict refusals included) with
   clients pinned 100 µs from the ring. *)
let closed_loop c ~seed ~measure ~uniform ?tracer () =
  let ledger = new_ledger () in
  let spans = Option.map (fun tr -> tr.spans) tracer in
  let make () =
    paper_world ~seed ~replicaset:c.c_replicaset ~one_way:c.c_one_way ~spans
  in
  let w = ref (setup ledger make) in
  for _ = 2 to setup_repeats do
    w := setup ledger make
  done;
  let w = !w in
  let acked = ref Binlog.Gtid_set.empty in
  let gen =
    Workload.Generator.create ~backend:(acking_backend w.cluster acked)
      ~client_id:c.c_client ~region:"r1"
      ?client_latency:(if uniform then Some bench_client_latency else None)
      ~key_space ~value_mu:(log 300.0) ~value_sigma:0.2 ~read_ratio:c.c_read_ratio
      ~read_level:Read.Level.Linearizable ~read_target:"mysql1" ()
  in
  let st = Workload.Generator.stats gen in
  let running = ref true in
  if uniform then Workload.Generator.start_closed_loop gen ~threads:c.c_threads
  else start_sessions w gen ~threads:c.c_threads ~read_ratio:c.c_read_ratio ~running;
  let warmup = if uniform then s else 0.5 *. s in
  advance w ~until:(Sim.Engine.now w.engine +. warmup);
  let commits0 = st.committed and reads0 = st.reads_ok in
  let lat0 = Stats.Histogram.count st.latencies in
  let rlat0 = Stats.Histogram.count st.read_latencies in
  window ?tracer ledger w
    ~clients:(fun () -> settled st)
    ~until:(Sim.Engine.now w.engine +. measure);
  running := false;
  Workload.Generator.stop gen;
  let secs = measure /. s in
  let commits = st.committed - commits0 and reads = st.reads_ok - reads0 in
  let lat = tail_of st.latencies ~skip:lat0 in
  let rlat = tail_of st.read_latencies ~skip:rlat0 in
  Stats.Histogram.iter lat (Stats.Histogram.record ledger.commit_lat);
  let n = Stats.Histogram.count lat and rn = Stats.Histogram.count rlat in
  let run_n = Stats.Histogram.count st.latencies in
  let commit_tps = float_of_int commits /. secs in
  let read_tps = float_of_int reads /. secs in
  let figures =
    [
      fig "commits" "count" (float_of_int commits);
      fig "commit_tps" "txn/s" commit_tps;
      fig ~n "commit_p50_ms" "ms" (pct lat 50.0 /. ms);
      fig ~n "commit_p999_ms" "ms" (pct lat 99.9 /. ms);
      (* the whole-run percentiles the per-experiment pipeline bench reports *)
      fig ~n:run_n "run_commit_p50_us" "us" (pct st.latencies 50.0);
      fig ~n:run_n "run_commit_p99_us" "us" (pct st.latencies 99.0);
      fig "events" "count" (float_of_int ledger.events);
    ]
    @ (if c.c_read_ratio > 0.0 then
         [
           fig "reads" "count" (float_of_int reads);
           fig "read_tps" "reads/s" read_tps;
           fig ~n:rn "read_p50_ms" "ms" (pct rlat 50.0 /. ms);
           fig ~n:rn "read_p999_ms" "ms" (pct rlat 99.9 /. ms);
           fig ~n:rn "read_p9999_ms" "ms" (pct rlat 99.99 /. ms);
         ]
       else [])
  in
  let goodput, p50_ms, tail_ms =
    (* About 0.1% of reads wait out a ~8 ms stall, so the read p99.9
       flips between ~1.5 and ~7.5 ms with the seed; p99.99 (tens of
       samples beyond it) sits inside that mode and is steady. *)
    if c.c_read_ratio > 0.0 then (read_tps, pct rlat 50.0 /. ms, pct rlat 99.99 /. ms)
    else (commit_tps, pct lat 50.0 /. ms, pct lat 99.9 /. ms)
  in
  {
    ledger;
    figures;
    goodput;
    p50_ms;
    tail_ms;
    checks = final_checks w ~acked:!acked;
    attempted = ledger.ops;
    failed = ledger.failed_ops;
  }

(* ----- wan-open: the open-loop rate ladder ----- *)

let slo_ms = 40.0

let slo_pct = 99.9

let ladder_step = 8_000.0

let bisections = 3

let wan_rows = 10_000_000

type step = {
  rate : float;
  arrivals : int;  (** in the measured window *)
  latencies : Stats.Histogram.t;  (** successful, µs from scheduled arrival *)
  misses : int;  (** failed, or unanswered 1 s after arrivals stopped *)
  late_ms : float;  (** how late the generator issued, worst case *)
  pass : bool;
}

(* Most misses an [n]-arrival window may have and still meet the SLO. *)
let allowed_misses n = n - int_of_float (ceil (slo_pct /. 100.0 *. float_of_int n))

let wan_step ~seed ~rate ~measure ?tracer ledger acked =
  let spans = Option.map (fun tr -> tr.spans) tracer in
  let w =
    setup ledger (fun () ->
        paper_world ~seed ~replicaset:"rs-wan" ~one_way:(5.0 *. ms) ~spans)
  in
  let gen =
    Workload.Generator.create ~backend:(acking_backend w.cluster acked)
      ~client_id:"wan-load" ~region:"r1" ()
  in
  let st = Workload.Generator.stats gen in
  let rng = Sim.Rng.split (Sim.Engine.rng w.engine) in
  let w0 = Sim.Engine.now w.engine +. (0.25 *. s) in
  let w1 = w0 +. measure in
  let latencies = Stats.Histogram.create () in
  let issued = ref 0 and arrivals = ref 0 and pending = ref 0 in
  let failed = ref 0 and late = ref 0 and late_us = ref 0.0 in
  let running = ref true in
  (* Poisson arrivals, each timed from its scheduled instant; arrival n
     writes row n mod [wan_rows], so in-flight writes never share a row
     lock. *)
  let rec arrive at () =
    if !running then begin
      let now = Sim.Engine.now w.engine in
      late_us := Float.max !late_us (now -. at);
      let counted = at >= w0 && at < w1 in
      if counted then begin
        incr arrivals;
        incr pending
      end;
      incr issued;
      Workload.Generator.issue_op gen ~table:"sbtest" ~key:(row (!issued mod wan_rows))
        ~value_size:(value_size rng) ~k:(fun ok ->
          if counted then begin
            decr pending;
            if ok then begin
              let l = Sim.Engine.now w.engine -. at in
              Stats.Histogram.record latencies l;
              if l > slo_ms *. ms then incr late
            end
            else incr failed
          end);
      let next = at +. Sim.Rng.exponential rng ~mean:(s /. rate) in
      ignore (Sim.Engine.schedule_at w.engine ~time:next (arrive next))
    end
  in
  let first = Sim.Engine.now w.engine +. Sim.Rng.exponential rng ~mean:(s /. rate) in
  ignore (Sim.Engine.schedule_at w.engine ~time:first (arrive first));
  advance w ~until:w0;
  (* Stop as soon as the verdict is certain: more misses than even the
     largest plausible arrival count allows. *)
  let expected = rate *. measure /. s in
  let most = int_of_float (expected +. (6.0 *. sqrt expected) +. 10.0) in
  let certain_fail () = !late + !failed > allowed_misses most in
  let lat0 = Stats.Histogram.count st.latencies in
  window ?tracer ledger w ~clients:(fun () -> settled st) ~stop:certain_fail ~until:w1;
  running := false;
  (* Ops still unanswered 1 s after arrivals stop miss the SLO. *)
  advance w
    ~stop:(fun () -> !pending = 0 || !late + !failed > allowed_misses !arrivals)
    ~until:(Sim.Engine.now w.engine +. s);
  Workload.Generator.stop gen;
  Stats.Histogram.iter (tail_of st.latencies ~skip:lat0)
    (Stats.Histogram.record ledger.commit_lat);
  let pass = !failed + !pending + !late <= allowed_misses !arrivals in
  ( {
      rate;
      arrivals = !arrivals;
      latencies;
      misses = !failed + !pending;
      late_ms = !late_us /. ms;
      pass;
    },
    final_checks w ~acked:!acked )

let wan_open ~seed ~measure ?tracer () =
  let ledger = new_ledger () in
  let steps = ref [] and checks = ref [] in
  let run rate =
    (* each step keeps its own acknowledged set: a fresh cluster *)
    let acked = ref Binlog.Gtid_set.empty in
    let st, c = wan_step ~seed ~rate ~measure ?tracer ledger acked in
    steps := st :: !steps;
    checks :=
      !checks @ List.map (fun (n, ok, d) -> (Printf.sprintf "%s@%.0f" n rate, ok, d)) c;
    st.pass
  in
  let rec climb rate = if run rate then climb (rate +. ladder_step) else rate in
  let first_fail = climb ladder_step in
  let lo = ref (first_fail -. ladder_step) and hi = ref first_fail in
  for _ = 1 to bisections do
    let mid = (!lo +. !hi) /. 2.0 in
    if run mid then lo := mid else hi := mid
  done;
  let steps = List.rev !steps in
  let at24 = List.find_opt (fun st -> st.rate = 24_000.0) steps in
  let q st p = pct_with_misses st.latencies ~misses:st.misses p /. ms in
  let step_figs =
    List.concat_map
      (fun st ->
        let tag = Printf.sprintf "step.%.0f" st.rate in
        let n = st.arrivals in
        [
          fig ~n (tag ^ ".commit_p50_ms") "ms" (q st 50.0);
          fig ~n (tag ^ ".commit_p999_ms") "ms" (q st 99.9);
          fig (tag ^ ".misses") "count" (float_of_int st.misses);
          fig (tag ^ ".slo_met") "bool" (if st.pass then 1.0 else 0.0);
        ])
      steps
  in
  let p50, p999 =
    match at24 with Some st -> (q st 50.0, q st 99.9) | None -> (nan, nan)
  in
  let n24 = match at24 with Some st -> st.arrivals | None -> 0 in
  let figures =
    [
      fig "max_rate_under_slo" "txn/s" !lo;
      fig ~n:n24 "commit_p50_ms" "ms" p50;
      fig ~n:n24 "commit_p999_ms" "ms" p999;
      fig "generator_lateness_ms" "ms"
        (List.fold_left (fun m st -> Float.max m st.late_ms) 0.0 steps);
      fig "events" "count" (float_of_int ledger.events);
    ]
    @ step_figs
  in
  {
    ledger;
    figures;
    goodput = !lo;
    p50_ms = p50;
    tail_ms = p999;
    checks = !checks;
    attempted = ledger.ops;
    failed = ledger.failed_ops;
  }

(* ----- failover: Table 2's crash and promotion trials ----- *)

let failover_trial ~seed ~op ?tracer ledger =
  let spans = Option.map (fun tr -> tr.spans) tracer in
  let w =
    setup ledger (fun () ->
        build ~seed ~members:(ring_members ()) ~replicaset:"rs-t2" ~links:[] ~spans)
  in
  let acked = ref Binlog.Gtid_set.empty in
  let probe = Myraft.Availability.start w.cluster ~client_id:"probe" in
  let gen =
    Workload.Generator.create ~backend:(acking_backend w.cluster acked) ~client_id:"bg"
      ~region:"r1" ()
  in
  let st = Workload.Generator.stats gen in
  Workload.Generator.start_open_loop gen ~rate_per_s:500.0;
  advance w ~until:(Sim.Engine.now w.engine +. (2.0 *. s));
  let incident_at = Sim.Engine.now w.engine in
  let clients () =
    let ops, failed, reads = settled st in
    let p_ok = Myraft.Availability.successes probe in
    let p_bad = Myraft.Availability.failures probe in
    (ops + p_ok + p_bad, failed + p_bad, reads)
  in
  let commits0 = st.committed in
  let started =
    match op with
    | `Crash ->
      Myraft.Cluster.crash w.cluster "mysql1";
      Ok ()
    | `Transfer -> Myraft.Cluster.transfer_leadership w.cluster ~target:"mysql2"
  in
  let recovered () =
    match Myraft.Cluster.primary w.cluster with
    | Some p -> Myraft.Server.id p <> "mysql1"
    | None -> false
  in
  window ?tracer ledger w ~clients ~stop:recovered ~until:(incident_at +. (60.0 *. s));
  window ?tracer ledger w ~clients ~until:(Sim.Engine.now w.engine +. (3.0 *. s));
  let end_at = Sim.Engine.now w.engine in
  Workload.Generator.stop gen;
  Myraft.Availability.stop probe;
  let checks =
    (match started with
    | Ok () -> ("incident", recovered (), "another primary serves")
    | Error e -> ("incident", false, e))
    :: final_checks w ~acked:!acked
  in
  ( Myraft.Availability.max_downtime probe ~start_time:incident_at ~end_time:end_at /. ms,
    checks,
    st.committed - commits0 )

(* Crash trials use seeds 1000*seed + i, promotion trials
   1000*(seed+1) + i: seed 3 gives Table 2's 3001.. and 4001.. *)
let failover ~seed ~trials ?tracer () =
  let ledger = new_ledger () in
  let commits = ref 0 and failed = ref 0 and checks = ref [] in
  let run op base =
    List.init trials (fun i ->
        let seed = base + i + 1 in
        let downtime, trial_checks, c = failover_trial ~seed ~op ?tracer ledger in
        commits := !commits + c;
        let bad = List.filter (fun (_, ok, _) -> not ok) trial_checks in
        if bad <> [] then begin
          incr failed;
          checks :=
            !checks
            @ List.map (fun (n, ok, d) -> (Printf.sprintf "%s@seed%d" n seed, ok, d)) bad
        end;
        downtime)
  in
  let crash = run `Crash (1000 * seed) in
  let promo = run `Transfer (1000 * (seed + 1)) in
  let h xs =
    let h = Stats.Histogram.create () in
    List.iter (Stats.Histogram.record h) xs;
    h
  in
  let hc = h crash and hp = h promo in
  (* The headline latencies pool both kinds of Table 2 as the geometric
     mean of their percentiles, so a change in either kind's downtime
     moves them by about half its relative size. *)
  let both p = sqrt (pct hc p *. pct hp p) in
  let checks =
    if !checks = [] then
      [
        ( "trials",
          true,
          Printf.sprintf "%d trials recovered, consistent and durable" (2 * trials) );
      ]
    else !checks
  in
  let goodput = float_of_int !commits /. (ledger.virt /. s) in
  {
    ledger;
    figures =
      [
        fig ~n:trials "failover_p50_ms" "ms" (pct hc 50.0);
        fig ~n:trials "failover_p75_ms" "ms" (pct hc 75.0);
        fig ~n:trials "promotion_p50_ms" "ms" (pct hp 50.0);
        fig ~n:trials "promotion_p75_ms" "ms" (pct hp 75.0);
        fig "background_commit_tps" "txn/s" goodput;
        fig "events" "count" (float_of_int ledger.events);
      ];
    goodput;
    p50_ms = both 50.0;
    tail_ms = both 75.0;
    checks;
    attempted = 2 * trials;
    failed = !failed;
  }

(* ----- per-layer metrics of a traced ledger ----- *)

let per_layer l ~commit_p50_ms ~overhead =
  let ops = float_of_int (max 1 l.ops) in
  let per_op x = float_of_int x /. ops in
  let ctr name = Option.value (Hashtbl.find_opt l.counters name) ~default:0 in
  (* A histogram nothing recorded into reads 0. *)
  let of_hist f name =
    match Hashtbl.find_opt l.hists name with
    | Some h when not (Stats.Histogram.is_empty h) -> f h
    | _ -> 0.0
  in
  let p50 = of_hist (fun h -> pct h 50.0) and mean = of_hist Stats.Histogram.mean in
  let ratio a b = if b = 0 then 0.0 else float_of_int a /. float_of_int b in
  let per_s x = float_of_int x /. (l.virt /. s) in
  let server i = k_server + i in
  let stages =
    p50 "pipeline.flush_us" +. p50 "pipeline.consensus_wait_us"
    +. p50 "pipeline.engine_commit_us"
  in
  [
    ("sim.residual_ns_per_op", "ns", per_op (l.wall - l.span_top));
    ("sim.events_per_op", "events", per_op l.events);
    ("sim.network.send_ns_per_op", "ns", per_op l.span_self.(k_send));
    ("sim.network.msgs_per_op", "msgs", per_op l.msgs);
    ("sim.network.bytes_per_op", "bytes", per_op l.bytes);
    ("sim.network.cross_region_bytes_per_op", "bytes", per_op l.xbytes);
  ]
  @ List.concat
      (List.mapi
         (fun i k ->
           [
             ("core.server.handle_ns_per_op." ^ k, "ns", per_op l.span_self.(server i));
             ("core.server.calls_per_op." ^ k, "calls", per_op l.span_calls.(server i));
           ])
         (Array.to_list msg_kinds))
  @ [
      ("core.logtailer.handle_ns_per_op.ae", "ns", per_op l.span_self.(k_tailer_ae));
      ( "core.logtailer.handle_ns_per_op.other",
        "ns",
        per_op l.span_self.(k_tailer_other) );
      ("core.pipeline.flush_us_p50", "us", p50 "pipeline.flush_us");
      ("core.pipeline.engine_commit_us_p50", "us", p50 "pipeline.engine_commit_us");
      ( "core.pipeline.stage_gap_us_p50",
        "us",
        if Float.is_nan commit_p50_ms then 0.0
        else (commit_p50_ms *. ms) -. client_rtt_us -. stages );
      ("core.pipeline.consensus_wait_us_p50", "us", p50 "pipeline.consensus_wait_us");
      ( "core.pipeline.consensus_wait_us_p999",
        "us",
        of_hist (fun h -> pct h 99.9) "pipeline.consensus_wait_us" );
      ("core.pipeline.group_size_mean", "txns", mean "pipeline.group_size");
      ("core.pipeline.commit_cycle_txns_mean", "txns", mean "pipeline.commit_cycle_txns");
      ("binlog.fsyncs_per_op", "fsyncs", per_op (ctr "binlog.fsyncs"));
      ("binlog.fsync_batch_entries_mean", "entries", mean "binlog.fsync_batch_entries");
      ("binlog.bytes_appended_per_op", "bytes", per_op (ctr "binlog.bytes_appended"));
      ( "core.server.reject_ratio",
        "ratio",
        ratio (ctr "server.writes_rejected")
          (ctr "server.writes_rejected" + ctr "server.writes_committed") );
      ( "core.applier.dep_stalls_per_kop",
        "stalls",
        1000.0 *. per_op (ctr "applier.dep_stalls") );
      ("core.applier.lag_max", "entries", l.lag_max);
      ("raft.ae_sent_per_op", "msgs", per_op (ctr "raft.ae_sent"));
      ("raft.ae_batch_bytes_p50", "bytes", p50 "raft.ae_batch_bytes");
      ("raft.retransmits", "count", float_of_int (ctr "raft.retransmits"));
      ("raft.nacks", "count", float_of_int (ctr "raft.nacks"));
      ("raft.elections_started", "count", float_of_int (ctr "raft.elections_started"));
      ( "raft.election_win_ratio",
        "ratio",
        ratio (ctr "raft.elections_won") (ctr "raft.elections_started") );
      ("raft.election_latency_us_p50", "us", p50 "raft.election_latency_us");
      ( "raft.log_cache.hit_ratio",
        "ratio",
        ratio (ctr "raft.log_cache.hits")
          (ctr "raft.log_cache.hits" + ctr "raft.log_cache.disk_reads") );
      ("raft.heartbeats_sent_per_s", "1/s", per_s (ctr "raft.heartbeats_sent"));
      ("raft.lease_extensions_per_s", "1/s", per_s (ctr "raft.lease_extensions"));
      ( "read.lease_served_ratio",
        "ratio",
        ratio (ctr "read.lease_served")
          (ctr "read.lease_served" + ctr "read.quorum_served") );
      ( "raft.readindex_rounds_per_read",
        "rounds",
        ratio (ctr "raft.readindex_rounds") l.reads );
      ("workload.client.handle_ns_per_op", "ns", per_op l.span_self.(k_client));
      ("runtime.gc_ns_per_op", "ns", per_op l.gc_ns);
      ("runtime.minor_collections_per_kop", "count", 1000.0 *. per_op l.minor_gcs);
      ("runtime.major_collections", "count", float_of_int l.major_gcs);
      ("trace.overhead_frac", "ratio", overhead);
    ]

(* ----- running a workload ----- *)

type workload = {
  name : string;
  default_seed : int;
  anchor : (string * float) list;
      (** figures a [--reproduce] run must equal exactly; [] for none *)
  run : seed:int -> ?tracer:tracer -> unit -> outcome;
}

(* How much simulated work [--seconds] buys, calibrated so one run
   measures roughly that many wall seconds on a 2-core x86-64 VM:
   lan-saturate and read-lease measure [seconds * rate] simulated
   seconds, wan-open measures that long per ladder step, and failover
   runs [seconds * rate] trials of each kind. *)
let lan_rate = 0.16

let read_rate = 0.45

let wan_rate = 0.0625

let failover_rate = 2.5

(* [reproduce]: the closed loops run the per-experiment benches' uniform
   key traffic for 4 simulated seconds at the default seed, and must
   reproduce their anchor figures. *)
type scale = { seconds : float; measure : float option; reproduce : bool }

let reproduce_measure = 4.0

let workloads sc =
  let measure rate =
    match sc.measure with
    | _ when sc.reproduce -> reproduce_measure *. s
    | Some m -> m *. s
    | None -> sc.seconds *. rate *. s
  in
  let uniform = sc.reproduce in
  [
    {
      name = "lan-saturate";
      default_seed = 71;
      (* BENCH_PIPELINE.json, window 8 / 2 ms RTT cell *)
      anchor =
        [
          ("commits", 419_105.0);
          ("run_commit_p50_us", 7_327.0);
          ("run_commit_p99_us", 8_256.0);
        ];
      run =
        (fun ~seed ?tracer () ->
          closed_loop lan_saturate ~seed ~measure:(measure lan_rate) ~uniform ?tracer ());
    };
    {
      name = "wan-open";
      default_seed = 72;
      anchor = [];
      run =
        (fun ~seed ?tracer () -> wan_open ~seed ~measure:(measure wan_rate) ?tracer ());
    };
    {
      name = "read-lease";
      default_seed = 73;
      (* a fresh [read --quick] lin+lease cell *)
      anchor = [ ("reads", 558_789.0) ];
      run =
        (fun ~seed ?tracer () ->
          closed_loop read_lease ~seed ~measure:(measure read_rate) ~uniform ?tracer ());
    };
    {
      name = "failover";
      default_seed = 3;
      anchor = [];
      run =
        (fun ~seed ?tracer () ->
          let trials = max 1 (int_of_float (Float.round (sc.seconds *. failover_rate))) in
          failover ~seed ~trials ?tracer ());
    };
  ]

let median xs =
  match List.sort compare xs with
  | [] -> nan
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* A value that is not finite (a ladder that never reached 24k tps, a
   p99.9 with too many misses) is written as null, never as a number a
   comparison could read as a gain. *)
let json_float v =
  if not (Float.is_finite v) then "null"
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.1f" v
  else Printf.sprintf "%.17g" v

let print_result ~correct ~attempted ~failed metrics =
  Printf.printf
    "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n%!"
    correct attempted failed
    (String.concat ", "
       (List.map
          (fun (name, unit, v) ->
            Printf.sprintf "\"%s\": {\"value\": %s, \"unit\": \"%s\"}" name (json_float v)
              unit)
          metrics))

let line wl name v unit ?(n = 0) () =
  if n > 0 then Printf.printf "%s %s %.6g %s n=%d\n" wl name v unit n
  else Printf.printf "%s %s %.6g %s\n" wl name v unit

let mib = 1048576.0

let end_to_end (o : outcome) =
  let l = o.ledger in
  let ops = float_of_int (max 1 l.ops) in
  [
    ("setup_s", "s", median l.setups);
    ("wall_us_per_op", "us", float_of_int l.wall /. 1e3 /. ops);
    ("minor_words_per_op", "words", l.minor_words /. ops);
    ("peak_heap_mb", "MiB", float_of_int (l.peak_words * (Sys.word_size / 8)) /. mib);
    ("goodput_per_s", "1/s", o.goodput);
    ("latency_p50_ms", "ms", o.p50_ms);
    ("latency_tail_ms", "ms", o.tail_ms);
  ]

(* [f ()] in a forked child, its result marshalled back: the child
   starts from this process's heap and leaves it untouched, so an
   untraced and a traced run compare from the same state. *)
let in_child (f : unit -> outcome) : outcome =
  flush_all ();
  let r, w = Unix.pipe () in
  match Unix.fork () with
  | 0 -> (
    Unix.close r;
    match f () with
    | result ->
      let oc = Unix.out_channel_of_descr w in
      Marshal.to_channel oc result [];
      close_out oc;
      Unix._exit 0
    | exception e ->
      prerr_endline (Printexc.to_string e);
      Unix._exit 2)
  | pid ->
    Unix.close w;
    let ic = Unix.in_channel_of_descr r in
    let result = In_channel.input_all ic in
    close_in ic;
    ignore (Unix.waitpid [] pid);
    if result = "" then failwith "the untraced run failed";
    Marshal.from_string result 0

(* Run one workload; prints every metric as "workload metric value unit"
   and the result JSON last.  Returns whether every check held. *)
let run_one (wl : workload) ~seed ~scale ~trace ~trace_out =
  let name = wl.name in
  let untraced =
    if trace then in_child (fun () -> wl.run ~seed ()) else wl.run ~seed ()
  in
  let checks = ref untraced.checks in
  List.iter
    (fun (f : figure) -> line name f.f_name f.f_value f.f_unit ~n:f.f_n ())
    untraced.figures;
  if scale.reproduce then
    List.iter
      (fun (fname, want) ->
        let got =
          match List.find_opt (fun (f : figure) -> f.f_name = fname) untraced.figures with
          | Some f -> f.f_value
          | None -> nan
        in
        let detail = Printf.sprintf "got %.0f, want %.0f" got want in
        checks := !checks @ [ ("anchor." ^ fname, got = want, detail) ])
      wl.anchor;
  let l = untraced.ledger in
  line name "error_rate"
    (float_of_int l.failed_ops /. float_of_int (max 1 l.ops))
    "ratio" ();
  let e2e = end_to_end untraced in
  let metrics =
    if not trace then e2e
    else begin
      let spans = Spans.create span_names in
      let tracer = { spans; gc = Spans.Gc_clock.start () } in
      let traced = wl.run ~seed ~tracer () in
      let same =
        List.length traced.figures = List.length untraced.figures
        && List.for_all2
             (fun (a : figure) (b : figure) ->
               a.f_name = b.f_name
               && (a.f_value = b.f_value
                  || (Float.is_nan a.f_value && Float.is_nan b.f_value)))
             untraced.figures traced.figures
      in
      checks :=
        !checks @ [ ("traced_matches_untraced", same, "every virtual figure equal") ];
      let tl = traced.ledger in
      let overhead = (float_of_int tl.wall /. float_of_int (max 1 l.wall)) -. 1.0 in
      let commit_p50_ms =
        if Stats.Histogram.is_empty tl.commit_lat then nan
        else pct tl.commit_lat 50.0 /. ms
      in
      let layers = per_layer tl ~commit_p50_ms ~overhead in
      let self_sum = Array.fold_left ( + ) 0 tl.span_self in
      Printf.printf "%s trace.wall_ns %d ns\n" name tl.wall;
      Printf.printf "%s trace.self_plus_residual_ns %d ns\n" name
        (self_sum + (tl.wall - tl.span_top));
      Printf.printf "%s trace.poll_ns_per_op %.6g ns\n" name
        (float_of_int tl.span_self.(k_poll) /. float_of_int (max 1 tl.ops));
      Printf.printf "%s trace.gc_events_lost %d count\n" name tl.gc_lost;
      Printf.printf "%s trace.spans_sampled %d count\n" name (Spans.sample_len spans);
      Option.iter (fun path -> Spans.write_sample spans path) trace_out;
      layers
    end
  in
  List.iter
    (fun (m, unit, v) -> line name m v unit ())
    (if trace then e2e @ metrics else e2e);
  let finite = List.for_all (fun (_, _, v) -> Float.is_finite v) metrics in
  checks :=
    !checks @ [ ("metrics_finite", finite, "every reported metric is a finite number") ];
  List.iter
    (fun (c, ok, detail) ->
      Printf.printf "%s check.%s %s %s\n" name c (if ok then "ok" else "FAIL") detail)
    !checks;
  let correct = List.for_all (fun (_, ok, _) -> ok) !checks in
  print_result ~correct ~attempted:(max 1 untraced.attempted) ~failed:untraced.failed
    metrics;
  correct
