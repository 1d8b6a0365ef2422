(* The nemesis: draws faults from a Schedule, applies them through an
   [ops] record (so the same engine drives a full MyRaft cluster or the
   bare Raft test harness), bounds how many are outstanding, and
   auto-heals each one after a random delay.

   Everything stochastic flows through one split RNG, so a chaos run is
   fully determined by its seed — the repro command printed on a
   violation replays the identical schedule. *)

(* Control surface over the system under test.  [Sim.Network.t] is typed
   over the protocol message, so the nemesis reaches it through closures
   rather than holding it directly. *)
type ops = {
  node_ids : string list;
  region_of : string -> string;
  is_up : string -> bool;
  leader : unit -> string option;
  crash : string -> unit;
  restart : string -> unit;
  isolate : string -> unit;
  heal_node : string -> unit;
  cut_regions : string -> string -> unit;
  heal_regions : string -> string -> unit;
  set_node_faults : string -> Sim.Network.fault_spec -> unit;
  clear_node_faults : string -> unit;
  heal_all_network : unit -> unit;
  store_of : string -> Binlog.Log_store.t option;
  transfer : target:string -> (unit, string) result;
  clock_of : string -> Sim.Clock.t option;
  set_link_faults : src:string -> dst:string -> Sim.Network.fault_spec -> unit;
  clear_link_faults : src:string -> dst:string -> unit;
  force_election : string -> unit;
}

type t = {
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  rng : Sim.Rng.t;
  spec : Schedule.t;
  ops : ops;
  regions : string list;
  injected : (Schedule.fault_kind, int) Hashtbl.t;
  msg_faulted : (string, unit) Hashtbl.t; (* nodes with an installed message fault *)
  clock_faulted : (string, unit) Hashtbl.t; (* nodes with a skewed clock *)
  asym_faulted : (string, unit) Hashtbl.t; (* sources of a one-way link cut *)
  metrics : Obs.Metrics.t; (* chaos.* counters, merged into the run report *)
  mutable corrupting : bool; (* at most one disk corruption in flight *)
  mutable active : int; (* outstanding (un-healed) faults *)
  mutable total : int;
}

let create ~engine ~trace ~rng ~spec ~ops =
  let regions =
    List.fold_left
      (fun acc id ->
        let r = ops.region_of id in
        if List.mem r acc then acc else acc @ [ r ])
      [] ops.node_ids
  in
  {
    engine;
    trace;
    rng;
    spec;
    ops;
    regions;
    injected = Hashtbl.create 16;
    msg_faulted = Hashtbl.create 8;
    clock_faulted = Hashtbl.create 8;
    asym_faulted = Hashtbl.create 8;
    metrics = Obs.Metrics.create ~node:"nemesis" ();
    corrupting = false;
    active = 0;
    total = 0;
  }

let notef t fmt =
  Printf.ksprintf (fun msg -> Sim.Trace.record t.trace ~tag:"nemesis" "%s" msg) fmt

let up_nodes t = List.filter t.ops.is_up t.ops.node_ids

let pick_from t = function
  | [] -> None
  | l -> Some (List.nth l (Sim.Rng.int t.rng (List.length l)))

(* Can we afford to take one more node down? *)
let can_crash t = List.length (up_nodes t) - 1 >= t.spec.Schedule.min_up

let record_injection t kind =
  t.total <- t.total + 1;
  Obs.Metrics.bump t.metrics ("chaos.injected." ^ Schedule.kind_to_string kind);
  Hashtbl.replace t.injected kind
    (1 + Option.value (Hashtbl.find_opt t.injected kind) ~default:0)

let schedule_heal t ~delay heal =
  t.active <- t.active + 1;
  ignore
    (Sim.Engine.schedule t.engine ~delay (fun () ->
         heal ();
         t.active <- t.active - 1))

(* ----- the individual faults ----- *)

let inject_crash t node =
  t.ops.crash node;
  record_injection t Schedule.Crash_restart;
  notef t "crash %s" node;
  schedule_heal t ~delay:(Schedule.heal_delay t.spec t.rng) (fun () ->
      if not (t.ops.is_up node) then begin
        t.ops.restart node;
        notef t "restart %s" node
      end)

let inject_leader_crash t leader =
  t.ops.crash leader;
  record_injection t Schedule.Leader_crash;
  notef t "crash leader %s" leader;
  schedule_heal t ~delay:(Schedule.heal_delay t.spec t.rng) (fun () ->
      if not (t.ops.is_up leader) then begin
        t.ops.restart leader;
        notef t "restart %s" leader
      end)

let inject_transfer t ~leader ~target =
  record_injection t Schedule.Graceful_transfer;
  (match t.ops.transfer ~target with
  | Ok () -> notef t "transfer %s -> %s requested" leader target
  | Error e -> notef t "transfer %s -> %s rejected: %s" leader target e)

let inject_partition t r1 r2 =
  t.ops.cut_regions r1 r2;
  record_injection t Schedule.Partition_regions;
  notef t "partition %s | %s" r1 r2;
  schedule_heal t ~delay:(Schedule.heal_delay t.spec t.rng) (fun () ->
      t.ops.heal_regions r1 r2;
      notef t "heal partition %s | %s" r1 r2)

let inject_isolate t node =
  t.ops.isolate node;
  record_injection t Schedule.Isolate_node;
  notef t "isolate %s" node;
  schedule_heal t ~delay:(Schedule.heal_delay t.spec t.rng) (fun () ->
      t.ops.heal_node node;
      notef t "heal isolation of %s" node)

let inject_msg_fault t kind node =
  let s = t.spec in
  let fault =
    match kind with
    | Schedule.Msg_drop -> { Sim.Network.no_faults with drop = s.Schedule.drop_p }
    | Schedule.Msg_duplicate ->
      { Sim.Network.no_faults with
        duplicate = s.Schedule.dup_p;
        reorder_delay = s.Schedule.reorder_delay
      }
    | Schedule.Msg_reorder ->
      { Sim.Network.no_faults with
        reorder = s.Schedule.reorder_p;
        reorder_delay = s.Schedule.reorder_delay
      }
    | Schedule.Latency_spike ->
      { Sim.Network.no_faults with extra_latency = s.Schedule.spike_latency }
    | _ -> assert false
  in
  t.ops.set_node_faults node fault;
  Hashtbl.replace t.msg_faulted node ();
  record_injection t kind;
  notef t "%s fault on %s" (Schedule.kind_to_string kind) node;
  schedule_heal t ~delay:(Schedule.heal_delay t.spec t.rng) (fun () ->
      t.ops.clear_node_faults node;
      Hashtbl.remove t.msg_faulted node;
      notef t "heal %s fault on %s" (Schedule.kind_to_string kind) node)

(* Torn tail: buffer the node's fsyncs so a tail accumulates, crash it
   mid-window (losing up to [torn_tail_k] unsynced entries when the
   restart runs log recovery), restart at heal. *)
let inject_torn_tail t node store =
  Binlog.Log_store.set_buffered store true;
  Binlog.Log_store.set_torn_tail store ~max_lost:t.spec.Schedule.torn_tail_k;
  record_injection t Schedule.Torn_tail;
  notef t "torn-tail armed on %s (k=%d)" node t.spec.Schedule.torn_tail_k;
  let delay = Schedule.heal_delay t.spec t.rng in
  ignore
    (Sim.Engine.schedule t.engine ~delay:(0.5 *. delay) (fun () ->
         if t.ops.is_up node && can_crash t then begin
           t.ops.crash node;
           notef t "torn-tail crash of %s (%d unsynced)" node
             (Binlog.Log_store.unsynced_count store)
         end));
  schedule_heal t ~delay (fun () ->
      if not (t.ops.is_up node) then begin
        t.ops.restart node;
        notef t "restart %s after torn-tail" node
      end
      else
        (* the crash was skipped (min_up floor); just flush the buffer *)
        Binlog.Log_store.set_buffered store false)

let inject_fsync_stall t node store =
  Binlog.Log_store.set_buffered store true;
  record_injection t Schedule.Fsync_stall;
  notef t "fsync stall on %s" node;
  schedule_heal t ~delay:(Schedule.heal_delay t.spec t.rng) (fun () ->
      Binlog.Log_store.set_buffered store false;
      notef t "fsync stall on %s drained (%d entries)" node
        (Binlog.Log_store.last_index store - Binlog.Log_store.synced_index store))

(* ----- the adversarial attack families ----- *)

(* Clock-rate drift on a node (by preference the leader, whose lease
   arithmetic is the target): run its oscillator fast or slow by
   [drift_rate], resync at heal.  The drift magnitude is chosen to sit
   beyond any [max_clock_drift] margin the Raft layer assumes, so an
   under-margined lease would serve stale reads. *)
let inject_clock_attack t kind node clock =
  let sign = if Sim.Rng.float t.rng < 0.5 then 1.0 else -1.0 in
  (match kind with
  | Schedule.Clock_drift ->
    let rate = 1.0 +. (sign *. t.spec.Schedule.drift_rate) in
    Sim.Clock.set_rate clock rate;
    notef t "clock drift on %s (rate %.3f)" node rate
  | Schedule.Clock_step ->
    let skew = sign *. t.spec.Schedule.step_skew in
    Sim.Clock.step clock skew;
    notef t "clock step on %s (%+.0f us)" node skew
  | _ -> assert false);
  Hashtbl.replace t.clock_faulted node ();
  record_injection t kind;
  schedule_heal t ~delay:(Schedule.heal_delay t.spec t.rng) (fun () ->
      Sim.Clock.reset clock;
      Hashtbl.remove t.clock_faulted node;
      notef t "clock resync on %s" node)

(* Byte-level rot in a stored entry, then a crash: at-rest corruption is
   only discovered when the page cache is gone and recovery re-reads the
   log, so the crash is what surfaces it.  At most one corruption is in
   flight at a time — combined with the [min_up] floor this guarantees
   intact copies of every committed entry survive somewhere. *)
let inject_disk_corrupt t node store =
  let last = Binlog.Log_store.last_index store in
  let lo = max 1 (Binlog.Log_store.purged_below store) in
  if last >= lo then begin
    let index = lo + Sim.Rng.int t.rng (last - lo + 1) in
    let flavor =
      if Sim.Rng.float t.rng < 0.5 then Binlog.Entry.Header else Binlog.Entry.Body
    in
    if Binlog.Log_store.corrupt_entry store ~index ~flavor then begin
      t.corrupting <- true;
      record_injection t Schedule.Disk_corrupt;
      notef t "corrupt %s entry at index %d on %s; crashing it"
        (match flavor with Binlog.Entry.Header -> "header" | Binlog.Entry.Body -> "body")
        index node;
      t.ops.crash node;
      schedule_heal t ~delay:(Schedule.heal_delay t.spec t.rng) (fun () ->
          t.corrupting <- false;
          if not (t.ops.is_up node) then begin
            t.ops.restart node;
            notef t "restart %s after corruption (recovery scan runs)" node
          end)
    end
  end

(* One-directional partition aimed at the leader's lease-refresh acks:
   drop everything every follower sends to the leader while the leader's
   own traffic (heartbeats, entries) still arrives.  The leader stops
   hearing acks — its lease cannot be extended — yet clients still reach
   it; meanwhile the followers, free to talk among themselves, elect a
   new leader the old one never learns about.  The classic lease-safety
   stress: only lease arithmetic stands between the deposed leader and a
   stale read. *)
let inject_asym_partition t ~leader ~followers =
  List.iter
    (fun src -> t.ops.set_link_faults ~src ~dst:leader { Sim.Network.no_faults with drop = 1.0 })
    followers;
  Hashtbl.replace t.asym_faulted leader ();
  record_injection t Schedule.Asym_partition;
  notef t "asym partition: inbound traffic to leader %s dropped (%d links)" leader
    (List.length followers);
  schedule_heal t ~delay:(Schedule.heal_delay t.spec t.rng) (fun () ->
      List.iter (fun src -> t.ops.clear_link_faults ~src ~dst:leader) followers;
      Hashtbl.remove t.asym_faulted leader;
      notef t "heal asym partition around %s" leader)

(* Election storm: force several followers to campaign simultaneously.
   Forced elections skip the Pre-Vote phase, so they bypass leader
   stickiness and drive real term churn — the revoke-on-higher-term path
   of the lease must hold. *)
let inject_election_storm t followers =
  record_injection t Schedule.Election_storm;
  notef t "election storm: forcing %s to campaign"
    (String.concat ", " followers);
  List.iter t.ops.force_election followers

(* ----- the step function ----- *)

(* One scheduling tick: with probability [inject_p], draw a fault from
   the mix and apply it if its preconditions hold.  Preconditions that
   fail (no leader, too few live nodes, every node already faulted) turn
   the draw into a no-op — the step never blocks. *)
let step t =
  if t.active < t.spec.Schedule.max_concurrent && Sim.Rng.float t.rng < t.spec.Schedule.inject_p
  then begin
    match Schedule.draw t.spec t.rng with
    | None -> ()
    | Some Schedule.Crash_restart ->
      if can_crash t then
        Option.iter (inject_crash t) (pick_from t (up_nodes t))
    | Some Schedule.Leader_crash -> (
      if can_crash t then
        match t.ops.leader () with
        | Some l when t.ops.is_up l -> inject_leader_crash t l
        | _ -> ())
    | Some Schedule.Graceful_transfer -> (
      match t.ops.leader () with
      | Some leader ->
        let candidates = List.filter (fun n -> n <> leader) (up_nodes t) in
        Option.iter (fun target -> inject_transfer t ~leader ~target) (pick_from t candidates)
      | None -> ())
    | Some Schedule.Partition_regions ->
      if List.length t.regions >= 2 then begin
        let r1 = List.nth t.regions (Sim.Rng.int t.rng (List.length t.regions)) in
        let rest = List.filter (fun r -> r <> r1) t.regions in
        let r2 = List.nth rest (Sim.Rng.int t.rng (List.length rest)) in
        inject_partition t r1 r2
      end
    | Some Schedule.Isolate_node -> Option.iter (inject_isolate t) (pick_from t (up_nodes t))
    | Some
        ((Schedule.Msg_drop | Schedule.Msg_duplicate | Schedule.Msg_reorder | Schedule.Latency_spike)
         as kind) ->
      let candidates =
        List.filter (fun n -> not (Hashtbl.mem t.msg_faulted n)) (up_nodes t)
      in
      Option.iter (inject_msg_fault t kind) (pick_from t candidates)
    | Some Schedule.Torn_tail ->
      let candidates =
        List.filter
          (fun n ->
            match t.ops.store_of n with
            | Some s -> not (Binlog.Log_store.buffered s)
            | None -> false)
          (up_nodes t)
      in
      Option.iter
        (fun node ->
          match t.ops.store_of node with
          | Some store -> inject_torn_tail t node store
          | None -> ())
        (pick_from t candidates)
    | Some Schedule.Fsync_stall ->
      let candidates =
        List.filter
          (fun n ->
            match t.ops.store_of n with
            | Some s -> not (Binlog.Log_store.buffered s)
            | None -> false)
          (up_nodes t)
      in
      Option.iter
        (fun node ->
          match t.ops.store_of node with
          | Some store -> inject_fsync_stall t node store
          | None -> ())
        (pick_from t candidates)
    | Some ((Schedule.Clock_drift | Schedule.Clock_step) as kind) ->
      (* Aim at the leader (its lease arithmetic is the target); fall
         back to a random node so followers' election timers get skewed
         too. *)
      let target =
        match t.ops.leader () with
        | Some l when t.ops.is_up l && not (Hashtbl.mem t.clock_faulted l) -> Some l
        | _ ->
          pick_from t
            (List.filter (fun n -> not (Hashtbl.mem t.clock_faulted n)) (up_nodes t))
      in
      Option.iter
        (fun node ->
          match t.ops.clock_of node with
          | Some clock -> inject_clock_attack t kind node clock
          | None -> ())
        target
    | Some Schedule.Disk_corrupt ->
      if (not t.corrupting) && can_crash t then begin
        let candidates =
          List.filter
            (fun n ->
              match t.ops.store_of n with
              | Some s -> not (Binlog.Log_store.buffered s)
              | None -> false)
            (up_nodes t)
        in
        Option.iter
          (fun node ->
            match t.ops.store_of node with
            | Some store -> inject_disk_corrupt t node store
            | None -> ())
          (pick_from t candidates)
      end
    | Some Schedule.Asym_partition -> (
      match t.ops.leader () with
      | Some leader when t.ops.is_up leader && not (Hashtbl.mem t.asym_faulted leader) ->
        let followers = List.filter (fun n -> n <> leader) (up_nodes t) in
        if followers <> [] then inject_asym_partition t ~leader ~followers
      | _ -> ())
    | Some Schedule.Election_storm -> (
      match t.ops.leader () with
      | Some leader ->
        let followers = List.filter (fun n -> n <> leader) (up_nodes t) in
        let rec take acc n pool =
          if n = 0 then List.rev acc
          else
            match pick_from t pool with
            | None -> List.rev acc
            | Some x -> take (x :: acc) (n - 1) (List.filter (fun y -> y <> x) pool)
        in
        let victims = take [] t.spec.Schedule.storm_nodes followers in
        if victims <> [] then inject_election_storm t victims
      | None -> ())
  end

(* Force-heal everything (end of run): reconnect the network, flush every
   buffered store, restart every down node. *)
let heal_now t =
  t.ops.heal_all_network ();
  Hashtbl.reset t.msg_faulted;
  Hashtbl.reset t.asym_faulted;
  Hashtbl.reset t.clock_faulted;
  t.corrupting <- false;
  List.iter
    (fun node ->
      (match t.ops.store_of node with
      | Some store ->
        Binlog.Log_store.set_torn_tail store ~max_lost:0;
        Binlog.Log_store.set_buffered store false
      | None -> ());
      (match t.ops.clock_of node with
      | Some clock -> if not (Sim.Clock.pristine clock) then Sim.Clock.reset clock
      | None -> ());
      if not (t.ops.is_up node) then t.ops.restart node)
    t.ops.node_ids;
  notef t "heal all"

let metrics_snapshot t = Obs.Metrics.snapshot t.metrics

let active t = t.active

let total_injections t = t.total

let injections t =
  List.filter_map
    (fun k -> Option.map (fun n -> (k, n)) (Hashtbl.find_opt t.injected k))
    Schedule.all_kinds

(* ----- adapters ----- *)

let ops_of_cluster c =
  let net = Myraft.Cluster.network c in
  let store_of id =
    match Myraft.Cluster.node c id with
    | Some (Myraft.Cluster.Mysql_node s) -> Some (Myraft.Server.log s)
    | Some (Myraft.Cluster.Tailer_node l) -> Some (Myraft.Logtailer.log l)
    | None -> None
  in
  {
    node_ids = Myraft.Cluster.member_ids c;
    region_of = (fun id -> Sim.Topology.region_of (Sim.Network.topology net) id);
    is_up = (fun id -> not (Myraft.Cluster.is_crashed c id));
    leader = (fun () -> Myraft.Cluster.raft_leader c);
    crash = Myraft.Cluster.crash c;
    restart = Myraft.Cluster.restart c;
    isolate = Myraft.Cluster.isolate c;
    heal_node = Myraft.Cluster.heal c;
    cut_regions = (fun r1 r2 -> Sim.Network.cut_regions net r1 r2);
    heal_regions = (fun r1 r2 -> Sim.Network.heal_regions net r1 r2);
    set_node_faults = Sim.Network.set_node_faults net;
    clear_node_faults = Sim.Network.clear_node_faults net;
    heal_all_network = (fun () -> Sim.Network.heal_all net);
    store_of;
    transfer = (fun ~target -> Myraft.Cluster.transfer_leadership c ~target);
    clock_of = (fun id -> Myraft.Cluster.clock_of c id);
    set_link_faults = (fun ~src ~dst spec -> Sim.Network.set_link_faults net ~src ~dst spec);
    clear_link_faults = (fun ~src ~dst -> Sim.Network.clear_link_faults net ~src ~dst);
    force_election =
      (fun id ->
        match Myraft.Cluster.raft_of c id with
        | Some r -> Raft.Node.trigger_election r
        | None -> ());
  }

let probes_of_cluster c =
  List.map
    (fun id ->
      {
        Invariants.probe_id = id;
        probe_up = (fun () -> not (Myraft.Cluster.is_crashed c id));
        probe_raft = (fun () -> Myraft.Cluster.raft_of c id);
        probe_store =
          (fun () ->
            match Myraft.Cluster.node c id with
            | Some (Myraft.Cluster.Mysql_node s) -> Some (Myraft.Server.log s)
            | Some (Myraft.Cluster.Tailer_node l) -> Some (Myraft.Logtailer.log l)
            | None -> None);
        probe_engine =
          (fun () ->
            match Myraft.Cluster.node c id with
            | Some (Myraft.Cluster.Mysql_node s) -> Some (Myraft.Server.storage s)
            | _ -> None);
      })
    (Myraft.Cluster.member_ids c)

(* ----- the full-cluster chaos runner ----- *)

type report = {
  r_seed : int;
  r_steps : int;
  r_shards : int; (* Raft groups multiplexed on the ring (1 = classic) *)
  r_quorum : Raft.Quorum.mode;
  r_lease : bool; (* leader-lease fast path enabled? *)
  r_max_clock_drift : float; (* drift margin the Raft layer was told to absorb *)
  r_faults : string list;
  r_injections : (Schedule.fault_kind * int) list;
  r_total_injections : int;
  r_committed : int; (* highest Raft index the checker saw committed *)
  r_workload_committed : int; (* client writes acknowledged committed *)
  r_lin_reads_ok : int; (* linearizable register reads served *)
  r_lin_violations : int; (* linearizable reads that saw stale values *)
  r_stale_eventual : int; (* eventual reads that observed staleness *)
  r_violations : Invariants.violation list;
  r_trace_digest : int32;
  r_fault_dropped : int;
  r_duplicated : int;
  r_reordered : int;
  r_metrics : Obs.Metrics.snapshot; (* end-of-run cluster-wide metrics *)
}

(* The canonical chaos topology: three regions, each a MySQL server plus
   two logtailers — big enough for region partitions, FlexiRaft dynamic
   quorums and three-way engine convergence. *)
let chaos_members () =
  [
    Myraft.Cluster.mysql "my1" "r1";
    Myraft.Cluster.logtailer "lt1a" "r1";
    Myraft.Cluster.logtailer "lt1b" "r1";
    Myraft.Cluster.mysql "my2" "r2";
    Myraft.Cluster.logtailer "lt2a" "r2";
    Myraft.Cluster.logtailer "lt2b" "r2";
    Myraft.Cluster.mysql "my3" "r3";
    Myraft.Cluster.logtailer "lt3a" "r3";
    Myraft.Cluster.logtailer "lt3b" "r3";
  ]

let digest_trace trace =
  List.fold_left
    (fun acc (e : Sim.Trace.entry) ->
      Binlog.Checksum.string
        (Printf.sprintf "%ld|%.1f|%s|%s" acc e.time e.tag e.message))
    0l (Sim.Trace.entries trace)

let quorum_name = function
  | Raft.Quorum.Majority -> "majority"
  | Raft.Quorum.Single_region_dynamic -> "flexi"
  | Raft.Quorum.Region_majorities -> "region-majorities"

let repro_command r =
  Printf.sprintf
    "dune exec bin/myraft_cli.exe -- chaos --seed %d --steps %d --faults %s --quorum %s%s%s%s"
    r.r_seed r.r_steps (String.concat "," r.r_faults) (quorum_name r.r_quorum)
    (if r.r_lease then "" else " --no-lease")
    (if r.r_max_clock_drift > 0.0 then
       Printf.sprintf " --max-clock-drift %g" r.r_max_clock_drift
     else "")
    (if r.r_shards > 1 then Printf.sprintf " --shards %d" r.r_shards else "")

(* Virtual time each schedule step runs before the invariants are checked. *)
let step_duration = 0.25 *. Sim.Engine.s

(* Run a seeded chaos schedule against a full MyRaft cluster under an
   open-loop workload plus the linearizable-register read checker,
   checking invariants continuously; then heal everything, let the ring
   settle, and require exact convergence.  [lease] toggles the leader
   lease fast path so CI exercises linearizability both ways. *)
let run ?(spec = Schedule.default) ?(quorum = Raft.Quorum.Single_region_dynamic)
    ?(lease = true) ?(max_clock_drift = 0.0) ?(rate_per_s = 150.0) ?(echo = false)
    ?(auto_purge = false) ~seed ~steps () =
  let params =
    { Myraft.Params.default with
      raft =
        { Myraft.Params.default.Myraft.Params.raft with
          Raft.Node.quorum_mode = quorum;
          use_leader_lease = lease;
          max_clock_drift
        }
    }
  in
  let cluster =
    Myraft.Cluster.create ~seed ~params ~echo_trace:echo ~replicaset:"chaos"
      ~members:(chaos_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"my1";
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"chaos-client" ~region:"r1" ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s;
  let engine = Myraft.Cluster.engine cluster in
  let trace = Myraft.Cluster.trace cluster in
  let nemesis =
    create ~engine ~trace ~rng:(Sim.Rng.of_int (seed lxor 0x6e656d65)) ~spec
      ~ops:(ops_of_cluster cluster)
  in
  let inv =
    Invariants.create
      ~snapshot:(fun () -> Myraft.Cluster.metrics_snapshot cluster)
      ~now:(fun () -> Sim.Engine.now engine)
      ~probes:(probes_of_cluster cluster)
      ()
  in
  let linreg = Linreg.start ~backend ~invariants:inv () in
  (* Aggressive log maintenance under fire: rotate then purge on the
     current primary so crashed/partitioned peers come back to find
     their tail gone — the InstallSnapshot rescue path must keep the
     ring convergent.  Purge only drops closed files, hence the flush
     (rotate) first. *)
  let maybe_purge i =
    if auto_purge && i mod 3 = 0 then
      match Myraft.Cluster.primary cluster with
      | Some srv when not (Myraft.Server.is_crashed srv) ->
        ignore (Myraft.Server.flush_binary_logs srv);
        let purged = Myraft.Server.purge_binary_logs srv in
        if purged > 0 then
          Sim.Trace.record trace ~tag:"nemesis" "auto-purge: %d binlog files dropped on %s"
            purged (Myraft.Server.id srv)
      | _ -> ()
  in
  for i = 1 to steps do
    step nemesis;
    Myraft.Cluster.run_for cluster step_duration;
    maybe_purge i;
    Invariants.check inv
  done;
  (* Heal, stop traffic, let the ring settle, then require convergence. *)
  Workload.Generator.stop gen;
  Linreg.stop linreg;
  heal_now nemesis;
  let settled =
    Myraft.Cluster.run_until cluster ~timeout:(60.0 *. Sim.Engine.s) (fun () ->
        match Myraft.Cluster.raft_leader cluster with
        | None -> false
        | Some _ ->
          let raft_of id = Myraft.Cluster.raft_of cluster id in
          let ids = Myraft.Cluster.member_ids cluster in
          let indexes = List.filter_map (fun id -> Option.map Raft.Node.commit_index (raft_of id)) ids in
          let tails =
            List.filter_map
              (fun id -> Option.map (fun r -> Binlog.Opid.index (Raft.Node.last_opid r)) (raft_of id))
              ids
          in
          (match (indexes, tails) with
          | i :: rest, tl :: more ->
            List.for_all (fun j -> j = i) rest
            (* commit agreement alone can precede full log propagation
               (e.g. a long uncommitted suffix built up while the leader
               was ack-starved): the tails must equalize too, and the
               appliers must drain before checksums can be compared *)
            && List.for_all (fun j -> j = tl) more
            && List.for_all
                 (fun srv -> Myraft.Server.applied_through srv >= i)
                 (Myraft.Cluster.servers cluster)
          | _ -> false))
  in
  Invariants.check inv;
  if settled then Invariants.check_converged inv
  else
    Sim.Trace.record trace ~tag:"nemesis" "WARNING: ring did not reconverge within timeout";
  let net = Myraft.Cluster.network cluster in
  let report =
    {
      r_seed = seed;
      r_steps = steps;
      r_shards = 1;
      r_quorum = quorum;
      r_lease = lease;
      r_max_clock_drift = max_clock_drift;
      r_faults = Schedule.fault_names spec;
      r_injections = injections nemesis;
      r_total_injections = total_injections nemesis;
      r_committed = Invariants.max_committed inv;
      r_workload_committed = (Workload.Generator.stats gen).Workload.Generator.committed;
      r_lin_reads_ok = (Linreg.stats linreg).Linreg.lin_ok;
      r_lin_violations = (Linreg.stats linreg).Linreg.lin_violations;
      r_stale_eventual = (Linreg.stats linreg).Linreg.ev_stale;
      r_violations = Invariants.violations inv;
      r_trace_digest = digest_trace trace;
      r_fault_dropped = Sim.Network.fault_dropped net;
      r_duplicated = Sim.Network.duplicated net;
      r_reordered = Sim.Network.reordered net;
      r_metrics =
        Obs.Metrics.merge
          (Myraft.Cluster.metrics_snapshot cluster)
          (metrics_snapshot nemesis);
    }
  in
  if report.r_violations <> [] then begin
    let entries = Sim.Trace.entries trace in
    let tail =
      let n = List.length entries in
      List.filteri (fun i _ -> i >= n - 40) entries
    in
    Printf.eprintf "=== INVARIANT VIOLATIONS (seed %d) ===\n" seed;
    List.iter
      (fun v -> Printf.eprintf "  %s\n" (Invariants.violation_to_string v))
      report.r_violations;
    Printf.eprintf "--- trace tail ---\n";
    List.iter
      (fun (e : Sim.Trace.entry) ->
        Printf.eprintf "  [%10.0fus] %-12s %s\n" e.time e.tag e.message)
      tail;
    Printf.eprintf "repro: %s\n%!" (repro_command report)
  end;
  report

let report_summary r =
  Printf.sprintf
    "seed %d%s · %s · lease %s · %d steps · %d injections (%s) · committed idx %d · %d client commits · lin reads %d (%d stale-lin, %d stale-eventual) · drop/dup/reorder %d/%d/%d · %d violations · digest %ld"
    r.r_seed
    (if r.r_shards > 1 then Printf.sprintf " · %d shards" r.r_shards else "")
    (quorum_name r.r_quorum)
    (if r.r_lease then "on" else "off")
    r.r_steps r.r_total_injections
    (String.concat ", "
       (List.map
          (fun (k, n) -> Printf.sprintf "%s:%d" (Schedule.kind_to_string k) n)
          r.r_injections))
    r.r_committed r.r_workload_committed r.r_lin_reads_ok r.r_lin_violations
    r.r_stale_eventual r.r_fault_dropped r.r_duplicated r.r_reordered
    (List.length r.r_violations) r.r_trace_digest

(* ----- multi-Raft (sharded) chaos ----- *)

(* Physical control surface over a multi-Raft deployment: crash/restart/
   isolate hit a node's instance of every group at once (one process),
   clocks are per physical node, while the leader-aimed and disk fault
   families target group 0 as the representative shard — its invariant
   checker is the one that must catch any damage. *)
let ops_of_multi m =
  let net = Shard.Mux.network (Shard.Multi.mux m) in
  let g0 = Shard.Multi.cluster m 0 in
  let store_of id =
    match Myraft.Cluster.node g0 id with
    | Some (Myraft.Cluster.Mysql_node s) -> Some (Myraft.Server.log s)
    | Some (Myraft.Cluster.Tailer_node l) -> Some (Myraft.Logtailer.log l)
    | None -> None
  in
  {
    node_ids = Shard.Multi.member_ids m;
    region_of = (fun id -> Option.value (Shard.Multi.region_of m id) ~default:"?");
    is_up = (fun id -> not (Shard.Multi.is_crashed m id));
    leader = (fun () -> Myraft.Cluster.raft_leader g0);
    crash = Shard.Multi.crash_node m;
    restart = Shard.Multi.restart_node m;
    isolate = Shard.Multi.isolate_node m;
    heal_node = Shard.Multi.heal_node m;
    cut_regions = (fun r1 r2 -> Sim.Network.cut_regions net r1 r2);
    heal_regions = (fun r1 r2 -> Sim.Network.heal_regions net r1 r2);
    set_node_faults = Sim.Network.set_node_faults net;
    clear_node_faults = Sim.Network.clear_node_faults net;
    heal_all_network = (fun () -> Sim.Network.heal_all net);
    store_of;
    transfer = (fun ~target -> Myraft.Cluster.transfer_leadership g0 ~target);
    clock_of = (fun id -> Shard.Multi.clock_of m id);
    set_link_faults = (fun ~src ~dst spec -> Sim.Network.set_link_faults net ~src ~dst spec);
    clear_link_faults = (fun ~src ~dst -> Sim.Network.clear_link_faults net ~src ~dst);
    force_election =
      (fun id ->
        match Myraft.Cluster.raft_of g0 id with
        | Some r -> Raft.Node.trigger_election r
        | None -> ());
  }

(* One group's full convergence: commit indexes and log tails equal on
   every member, appliers drained. *)
let group_settled c =
  match Myraft.Cluster.raft_leader c with
  | None -> false
  | Some _ ->
    let raft_of id = Myraft.Cluster.raft_of c id in
    let ids = Myraft.Cluster.member_ids c in
    let indexes = List.filter_map (fun id -> Option.map Raft.Node.commit_index (raft_of id)) ids in
    let tails =
      List.filter_map
        (fun id -> Option.map (fun r -> Binlog.Opid.index (Raft.Node.last_opid r)) (raft_of id))
        ids
    in
    (match (indexes, tails) with
    | i :: rest, tl :: more ->
      List.for_all (fun j -> j = i) rest
      && List.for_all (fun j -> j = tl) more
      && List.for_all
           (fun srv -> Myraft.Server.applied_through srv >= i)
           (Myraft.Cluster.servers c)
    | _ -> false)

(* The sharded counterpart of {!run}: the same fault schedule against a
   multi-Raft deployment (every chaos member hosts [shards] groups behind
   the coalescing mux), routed workload traffic across all shards, and
   one invariant checker per group — safety is per consensus group, and
   every group must also reconverge after the final heal. *)
let run_sharded ?(spec = Schedule.default) ?(quorum = Raft.Quorum.Single_region_dynamic)
    ?(lease = true) ?(max_clock_drift = 0.0) ?(rate_per_s = 150.0) ?(auto_purge = false)
    ~shards ~seed ~steps () =
  let params =
    { Myraft.Params.default with
      raft =
        { Myraft.Params.default.Myraft.Params.raft with
          Raft.Node.quorum_mode = quorum;
          use_leader_lease = lease;
          max_clock_drift
        }
    }
  in
  let multi =
    Shard.Multi.create ~seed ~params ~members:(chaos_members ()) ~groups:shards ()
  in
  Shard.Multi.bootstrap multi;
  let backend = Shard.Multi.backend multi in
  let gen =
    Workload.Generator.create ~backend ~client_id:"chaos-client" ~region:"r1" ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s;
  let engine = Shard.Multi.engine multi in
  let trace = Sim.Trace.create ~echo:false engine in
  let nemesis =
    create ~engine ~trace ~rng:(Sim.Rng.of_int (seed lxor 0x6e656d65)) ~spec
      ~ops:(ops_of_multi multi)
  in
  let invs =
    List.map
      (fun c ->
        Invariants.create
          ~snapshot:(fun () -> Myraft.Cluster.metrics_snapshot c)
          ~now:(fun () -> Sim.Engine.now engine)
          ~probes:(probes_of_cluster c) ())
      (Shard.Multi.clusters multi)
  in
  let check_all () = List.iter Invariants.check invs in
  let linreg = Linreg.start ~backend ~invariants:(List.hd invs) () in
  let maybe_purge i =
    if auto_purge && i mod 3 = 0 then
      List.iter
        (fun c ->
          match Myraft.Cluster.primary c with
          | Some srv when not (Myraft.Server.is_crashed srv) ->
            ignore (Myraft.Server.flush_binary_logs srv);
            ignore (Myraft.Server.purge_binary_logs srv)
          | _ -> ())
        (Shard.Multi.clusters multi)
  in
  for i = 1 to steps do
    step nemesis;
    Shard.Multi.run_for multi step_duration;
    maybe_purge i;
    check_all ()
  done;
  Workload.Generator.stop gen;
  Linreg.stop linreg;
  heal_now nemesis;
  let settled =
    Shard.Multi.run_until multi ~timeout:(90.0 *. Sim.Engine.s) (fun () ->
        List.for_all group_settled (Shard.Multi.clusters multi))
  in
  check_all ();
  if settled then List.iter Invariants.check_converged invs
  else
    Sim.Trace.record trace ~tag:"nemesis"
      "WARNING: some shard did not reconverge within timeout";
  let net = Shard.Mux.network (Shard.Multi.mux multi) in
  let report =
    {
      r_seed = seed;
      r_steps = steps;
      r_shards = shards;
      r_quorum = quorum;
      r_lease = lease;
      r_max_clock_drift = max_clock_drift;
      r_faults = Schedule.fault_names spec;
      r_injections = injections nemesis;
      r_total_injections = total_injections nemesis;
      r_committed =
        List.fold_left (fun acc inv -> max acc (Invariants.max_committed inv)) 0 invs;
      r_workload_committed = (Workload.Generator.stats gen).Workload.Generator.committed;
      r_lin_reads_ok = (Linreg.stats linreg).Linreg.lin_ok;
      r_lin_violations = (Linreg.stats linreg).Linreg.lin_violations;
      r_stale_eventual = (Linreg.stats linreg).Linreg.ev_stale;
      r_violations = List.concat_map Invariants.violations invs;
      r_trace_digest = digest_trace trace;
      r_fault_dropped = Sim.Network.fault_dropped net;
      r_duplicated = Sim.Network.duplicated net;
      r_reordered = Sim.Network.reordered net;
      r_metrics =
        Obs.Metrics.merge (Shard.Multi.metrics_snapshot multi) (metrics_snapshot nemesis);
    }
  in
  if report.r_violations <> [] then begin
    Printf.eprintf "=== INVARIANT VIOLATIONS (seed %d, %d shards) ===\n" seed shards;
    List.iter
      (fun v -> Printf.eprintf "  %s\n" (Invariants.violation_to_string v))
      report.r_violations;
    Printf.eprintf "repro: %s\n%!" (repro_command report)
  end;
  report

(* Seed sweep for CI smoke: run [seeds] and return the reports; the exit
   gate is simply "no report has violations".  [shards > 1] runs every
   seed against the multi-Raft deployment instead. *)
let sweep ?spec ?quorum ?lease ?max_clock_drift ?rate_per_s ?auto_purge
    ?(shards = 1) ~seeds ~steps () =
  List.map
    (fun seed ->
      if shards > 1 then
        run_sharded ?spec ?quorum ?lease ?max_clock_drift ?rate_per_s
          ?auto_purge ~shards ~seed ~steps ()
      else
        run ?spec ?quorum ?lease ?max_clock_drift ?rate_per_s ?auto_purge
          ~seed ~steps ())
    seeds
