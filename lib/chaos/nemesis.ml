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

let total_injections t = t.total

let injections t =
  List.filter_map
    (fun k -> Option.map (fun n -> (k, n)) (Hashtbl.find_opt t.injected k))
    Schedule.all_kinds

(* ----- deployments ----- *)

(* The fault surface of a deployment whose groups share [net].  Store,
   clock, transfer and forced-election faults act on group 0 (a
   multi-Raft deployment's representative shard, whose checker must
   catch any damage); crash, restart, isolate and heal come from the
   caller, because a physical fault hits a node's instance of every
   group. *)
let deployment_ops net g0 ~crash ~restart ~isolate ~heal_node =
  {
    node_ids = Myraft.Cluster.member_ids g0;
    region_of = Sim.Topology.region_of (Sim.Network.topology net);
    is_up = (fun id -> not (Myraft.Cluster.is_crashed g0 id));
    leader = (fun () -> Myraft.Cluster.raft_leader g0);
    crash;
    restart;
    isolate;
    heal_node;
    cut_regions = Sim.Network.cut_regions net;
    heal_regions = Sim.Network.heal_regions net;
    set_node_faults = Sim.Network.set_node_faults net;
    clear_node_faults = Sim.Network.clear_node_faults net;
    heal_all_network = (fun () -> Sim.Network.heal_all net);
    store_of = Myraft.Cluster.log_of g0;
    transfer = (fun ~target -> Myraft.Cluster.transfer_leadership g0 ~target);
    clock_of = Myraft.Cluster.clock_of g0;
    set_link_faults = Sim.Network.set_link_faults net;
    clear_link_faults = Sim.Network.clear_link_faults net;
    force_election =
      (fun id -> Option.iter Raft.Node.trigger_election (Myraft.Cluster.raft_of g0 id));
  }

type deployment = {
  groups : Myraft.Cluster.t list;
  backend : Workload.Backend.t;
  ops : ops;
  metrics : unit -> Obs.Metrics.snapshot;
}

let of_cluster c =
  {
    groups = [ c ];
    backend = Workload.Backend.myraft c;
    ops =
      deployment_ops (Myraft.Cluster.network c) c ~crash:(Myraft.Cluster.crash c)
        ~restart:(Myraft.Cluster.restart c) ~isolate:(Myraft.Cluster.isolate c)
        ~heal_node:(Myraft.Cluster.heal c);
    metrics = (fun () -> Myraft.Cluster.metrics_snapshot c);
  }

let of_multi m =
  {
    groups = Shard.Multi.clusters m;
    backend = Shard.Multi.backend m;
    ops =
      deployment_ops
        (Shard.Mux.network (Shard.Multi.mux m))
        (Shard.Multi.cluster m 0) ~crash:(Shard.Multi.crash_node m)
        ~restart:(Shard.Multi.restart_node m) ~isolate:(Shard.Multi.isolate_node m)
        ~heal_node:(Shard.Multi.heal_node m);
    metrics = (fun () -> Shard.Multi.metrics_snapshot m);
  }

(* ----- the harness: client, checkers, settle ----- *)

(* A member's probe.  [probe_up] also requires membership in the newest
   installed config across live nodes, so an evicted member leaves the
   checks; while the config is fixed that part always holds. *)
let member_probe cluster id =
  {
    Invariants.probe_id = id;
    probe_up =
      (fun () ->
        (not (Myraft.Cluster.is_crashed cluster id))
        &&
        match Reconfig.Healer.newest_config cluster with
        | Some cfg -> Raft.Types.is_member cfg id
        | None -> true);
    probe_raft = (fun () -> Myraft.Cluster.raft_of cluster id);
    probe_store = (fun () -> Myraft.Cluster.log_of cluster id);
    probe_engine =
      (fun () -> Option.map Myraft.Server.storage (Myraft.Cluster.server cluster id));
  }

let probes_of_cluster c = List.map (member_probe c) (Myraft.Cluster.member_ids c)

type harness = {
  dep : deployment;
  gen : Workload.Generator.t;
  invs : Invariants.t list;
}

let start dep ~client_id ~rate_per_s =
  let gen =
    Workload.Generator.create ~backend:dep.backend ~client_id ~region:"r1" ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s;
  let invs =
    List.map
      (fun c ->
        Invariants.create
          ~snapshot:(fun () -> Myraft.Cluster.metrics_snapshot c)
          ~now:(fun () -> Myraft.Cluster.now c)
          ~probes:(probes_of_cluster c) ())
      dep.groups
  in
  { dep; gen; invs }

(* Newly provisioned members gain a probe (idempotent), then every
   group's invariants run once. *)
let check h =
  List.iter2
    (fun c inv ->
      List.iter
        (fun id -> Invariants.add_probe inv (member_probe c id))
        (Myraft.Cluster.member_ids c);
      Invariants.check inv)
    h.dep.groups h.invs

(* One group's full convergence over its *current* membership: equal
   commit indexes and log tails, drained appliers, and one agreed config
   identity.  Commit agreement alone can precede full log propagation
   (a long uncommitted suffix built up while the leader was
   ack-starved), hence the tails; appliers must drain before engine
   content can be compared.  Evicted and crashed nodes are out of scope,
   as the membership-aware probes leave them out of [check_converged]. *)
let members_settled cluster =
  match (Myraft.Cluster.raft_leader cluster, Reconfig.Healer.newest_config cluster) with
  | None, _ | _, None -> false
  | Some _, Some cfg -> (
    let ids =
      List.filter
        (fun id -> not (Myraft.Cluster.is_crashed cluster id))
        (Raft.Types.member_ids cfg)
    in
    match List.filter_map (Myraft.Cluster.raft_of cluster) ids with
    | [] -> false
    | r0 :: rest ->
      let i = Raft.Node.commit_index r0 in
      let tl = Binlog.Opid.index (Raft.Node.last_opid r0) in
      let cid = Raft.Node.config_id r0 in
      i > 0
      && List.for_all (fun r -> Raft.Node.commit_index r = i) rest
      && List.for_all (fun r -> Binlog.Opid.index (Raft.Node.last_opid r) = tl) rest
      && List.for_all (fun r -> Raft.Node.config_id r = cid) rest
      && List.for_all
           (fun id ->
             match Myraft.Cluster.server cluster id with
             | Some srv -> Myraft.Server.applied_through srv >= i
             | None -> true)
           ids)

let settle_timeout = 60.0 *. Sim.Engine.s

(* Stop the client, let every group settle, check once more, and if
   they settled require exact convergence.  Returns whether they did. *)
let settle h =
  Workload.Generator.stop h.gen;
  let settled =
    Myraft.Cluster.run_until (List.hd h.dep.groups) ~timeout:settle_timeout (fun () ->
        List.for_all members_settled h.dep.groups)
  in
  check h;
  if settled then List.iter Invariants.check_converged h.invs;
  settled

let max_committed h =
  List.fold_left (fun acc inv -> max acc (Invariants.max_committed inv)) 0 h.invs

let client_commits h = (Workload.Generator.stats h.gen).Workload.Generator.committed

let violations h = List.concat_map Invariants.violations h.invs

(* ----- the chaos runner ----- *)

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
  r_converged : bool; (* settled and checked for exact convergence after the heal *)
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

(* On violations: each one, the trace tail and the repro command, to
   stderr. *)
let report_violations trace r =
  if r.r_violations <> [] then begin
    let entries = Sim.Trace.entries trace in
    let n = List.length entries in
    Printf.eprintf "=== INVARIANT VIOLATIONS (seed %d%s) ===\n" r.r_seed
      (if r.r_shards > 1 then Printf.sprintf ", %d shards" r.r_shards else "");
    List.iter
      (fun v -> Printf.eprintf "  %s\n" (Invariants.violation_to_string v))
      r.r_violations;
    Printf.eprintf "--- trace tail ---\n";
    List.iteri
      (fun i (e : Sim.Trace.entry) ->
        if i >= n - 40 then
          Printf.eprintf "  [%10.0fus] %-12s %s\n" e.time e.tag e.message)
      entries;
    Printf.eprintf "repro: %s\n%!" (repro_command r)
  end

(* Virtual time each schedule step runs before the invariants are checked. *)
let step_duration = 0.25 *. Sim.Engine.s

(* Run a seeded chaos schedule under an open-loop workload plus the
   linearizable-register read checker, checking every group's invariants
   continuously; then heal everything, let the deployment settle, and
   require exact convergence.  [shards = 1] is a classic cluster; more
   multiplexes that many Raft groups on the same ring behind the
   coalescing mux, one checker per group. *)
let run ?(spec = Schedule.default) ?(quorum = Raft.Quorum.Single_region_dynamic)
    ?(lease = true) ?(max_clock_drift = 0.0) ?(rate_per_s = 150.0) ?(echo = false)
    ?(auto_purge = false) ?(shards = 1) ~seed ~steps () =
  if echo && shards > 1 then invalid_arg "Nemesis.run: no trace echo in multi-Raft mode";
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
  let dep =
    if shards = 1 then begin
      let c =
        Myraft.Cluster.create ~seed ~params ~echo_trace:echo ~replicaset:"chaos"
          ~members:(chaos_members ()) ()
      in
      Myraft.Cluster.bootstrap c ~leader_id:"my1";
      of_cluster c
    end
    else begin
      let m =
        Shard.Multi.create ~seed ~params ~members:(chaos_members ()) ~groups:shards ()
      in
      Shard.Multi.bootstrap m;
      of_multi m
    end
  in
  let h = start dep ~client_id:"chaos-client" ~rate_per_s in
  let g0 = List.hd dep.groups in
  let trace = Myraft.Cluster.trace g0 in
  let nemesis =
    create ~engine:(Myraft.Cluster.engine g0) ~trace
      ~rng:(Sim.Rng.of_int (seed lxor 0x6e656d65)) ~spec ~ops:dep.ops
  in
  let linreg = Linreg.start ~backend:dep.backend ~invariants:(List.hd h.invs) () in
  (* Aggressive log maintenance under fire: rotate then purge on each
     group's primary so crashed/partitioned peers come back to find
     their tail gone — the InstallSnapshot rescue path must keep the
     ring convergent.  Purge only drops closed files, hence the flush
     (rotate) first. *)
  let maybe_purge i =
    if auto_purge && i mod 3 = 0 then
      List.iter
        (fun c ->
          match Myraft.Cluster.primary c with
          | Some srv when not (Myraft.Server.is_crashed srv) ->
            ignore (Myraft.Server.flush_binary_logs srv);
            let purged = Myraft.Server.purge_binary_logs srv in
            if purged > 0 then
              Sim.Trace.record trace ~tag:"nemesis"
                "auto-purge: %d binlog files dropped on %s" purged (Myraft.Server.id srv)
          | _ -> ())
        dep.groups
  in
  for i = 1 to steps do
    step nemesis;
    Myraft.Cluster.run_for g0 step_duration;
    maybe_purge i;
    check h
  done;
  Linreg.stop linreg;
  heal_now nemesis;
  let converged = settle h in
  if not converged then
    Sim.Trace.record trace ~tag:"nemesis" "WARNING: ring did not reconverge within timeout";
  let snap = dep.metrics () in
  let lin = Linreg.stats linreg in
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
      r_committed = max_committed h;
      r_workload_committed = client_commits h;
      r_lin_reads_ok = lin.Linreg.lin_ok;
      r_lin_violations = lin.Linreg.lin_violations;
      r_stale_eventual = lin.Linreg.ev_stale;
      r_violations = violations h;
      r_converged = converged;
      r_trace_digest = digest_trace trace;
      r_fault_dropped = Obs.Metrics.counter_of snap "net.fault_dropped";
      r_duplicated = Obs.Metrics.counter_of snap "net.duplicated";
      r_reordered = Obs.Metrics.counter_of snap "net.reordered";
      r_metrics = Obs.Metrics.merge snap (metrics_snapshot nemesis);
    }
  in
  report_violations trace report;
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

(* Seed sweep for CI smoke: run [seeds] and return the reports; the exit
   gate is "every report converged with no violations". *)
let sweep ?spec ?quorum ?lease ?max_clock_drift ?rate_per_s ?auto_purge ?shards ~seeds
    ~steps () =
  List.map
    (fun seed ->
      run ?spec ?quorum ?lease ?max_clock_drift ?rate_per_s ?auto_purge ?shards ~seed
        ~steps ())
    seeds
