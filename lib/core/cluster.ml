(* Replicaset assembly: builds a full MyRaft ring (MySQL servers +
   logtailers) on a simulated multi-region network, wires service
   discovery, and exposes the control operations the experiments use
   (bootstrap, crash/restart, partitions, leadership transfer).

   Two modes:
   - standalone (the default): the cluster owns its engine, topology,
     network, trace, discovery and trace ring — one consensus group in
     the world, exactly the pre-shard behaviour;
   - shared (multi-Raft): the embedder (Shard.Multi) hands in one
     engine/trace/discovery plus a [transport] — closures over a shared
     multiplexing network — and many group clusters ride the same
     physical nodes.  The cluster then owns no network of its own and
     every wire/fault operation routes through the transport. *)

type member_spec = {
  spec_id : string;
  spec_region : string;
  spec_kind : Raft.Types.member_kind;
  spec_voter : bool;
}

let mysql ?(voter = true) id region =
  { spec_id = id; spec_region = region; spec_kind = Raft.Types.Mysql_server; spec_voter = voter }

let logtailer id region =
  { spec_id = id; spec_region = region; spec_kind = Raft.Types.Logtailer; spec_voter = true }

type node = Mysql_node of Server.t | Tailer_node of Logtailer.t

(* The wire/fault surface a group cluster needs from whoever owns the
   physical network.  In standalone mode these close over the cluster's
   own [Sim.Network]; in shared mode over the shard mux. *)
type transport = {
  tr_send : src:string -> dst:string -> Wire.t -> unit;
  tr_register : string -> (src:string -> Wire.t -> unit) -> unit;
  tr_add_node : id:string -> region:string -> unit; (* must be idempotent *)
  tr_set_down : string -> unit;
  tr_set_up : string -> unit;
  tr_isolate : string -> unit;
  tr_heal : string -> unit;
  tr_set_link_latency : a:string -> b:string -> latency:float -> unit;
}

(* Shared infrastructure for one group of a multi-Raft deployment. *)
type shared = {
  sh_engine : Sim.Engine.t;
  sh_trace : Sim.Trace.t;
  sh_discovery : Service_discovery.t;
  sh_tracebuf : Obs.Tracebuf.t;
  sh_group : int; (* this cluster's group tag *)
  sh_clock_of : string -> Sim.Clock.t option;
      (* per-physical-node clocks: every group instance on a node shares
         its oscillator, so injected clock faults hit them all alike *)
  sh_transport : transport;
}

type t = {
  engine : Sim.Engine.t;
  network : Wire.t Sim.Network.t option; (* None in shared (multi-Raft) mode *)
  transport : transport;
  trace : Sim.Trace.t;
  discovery : Service_discovery.t;
  replicaset : string;
  group : int;
  clock_override : string -> Sim.Clock.t option;
  params : Params.t;
  nodes : (string, node) Hashtbl.t;
  mutable member_order : string list;
  initial_config : Raft.Types.config;
  tracebuf : Obs.Tracebuf.t; (* one OpId-correlated ring shared by all nodes *)
}

let engine t = t.engine

let network t =
  match t.network with
  | Some n -> n
  | None -> invalid_arg "Cluster.network: shared-transport (multi-Raft) mode"

let transport t = t.transport

let group t = t.group

let trace t = t.trace

let tracebuf t = t.tracebuf

let discovery t = t.discovery

let replicaset_name t = t.replicaset

let initial_config t = t.initial_config

let params t = t.params

let member_ids t = t.member_order

let node t id = Hashtbl.find_opt t.nodes id

let server t id =
  match node t id with Some (Mysql_node s) -> Some s | _ -> None

let tailer t id =
  match node t id with Some (Tailer_node l) -> Some l | _ -> None

let servers t =
  List.filter_map (fun id -> server t id) t.member_order

(* MySQL members only: the nodes with a storage engine, i.e. the valid
   targets for client reads (logtailers hold logs, not tables). *)
let mysql_ids t =
  List.filter (fun id -> server t id <> None) t.member_order

let tailers t =
  List.filter_map (fun id -> tailer t id) t.member_order

let raft_of t id =
  match node t id with
  | Some (Mysql_node s) -> Some (Server.raft s)
  | Some (Tailer_node l) -> Some (Logtailer.raft l)
  | None -> None

(* The node's binlog (MySQL) or relay log (logtailer): the store the
   Raft layer replicates, and the chaos disk-fault injection point. *)
let log_of t id =
  match node t id with
  | Some (Mysql_node s) -> Some (Server.log s)
  | Some (Tailer_node l) -> Some (Logtailer.log l)
  | None -> None

(* The node's local clock (fault-injection point): owned by the
   server/logtailer object, so it survives crash/restart cycles — bit
   like the host's oscillator surviving a process restart. *)
let clock_of t id =
  match node t id with
  | Some (Mysql_node s) -> Some (Server.clock s)
  | Some (Tailer_node l) -> Some (Logtailer.clock l)
  | None -> None

let is_crashed t id =
  match node t id with
  | Some (Mysql_node s) -> Server.is_crashed s
  | Some (Tailer_node l) -> Logtailer.is_crashed l
  | None -> true

let metrics_of t id =
  match node t id with
  | Some (Mysql_node s) -> Some (Server.metrics s)
  | Some (Tailer_node l) -> Some (Logtailer.metrics l)
  | None -> None

(* The network's scalar net.* counters, bumped into [m]: sim cannot
   depend on obs (obs sits above sim), so the network exports raw counts
   and its owner dresses them as metrics. *)
let add_network_counters m net =
  Obs.Metrics.bump ~by:(Sim.Network.total_messages net) m "net.messages";
  Obs.Metrics.bump ~by:(Sim.Network.total_bytes net) m "net.bytes";
  Obs.Metrics.bump ~by:(Sim.Network.cross_region_bytes net) m "net.cross_region_bytes";
  Obs.Metrics.bump ~by:(Sim.Network.dropped net) m "net.dropped";
  Obs.Metrics.bump ~by:(Sim.Network.fault_dropped net) m "net.fault_dropped";
  Obs.Metrics.bump ~by:(Sim.Network.duplicated net) m "net.duplicated";
  Obs.Metrics.bump ~by:(Sim.Network.reordered net) m "net.reordered"

(* A registry-shaped view of the network's counters, built on demand,
   with a row per directed link and per region pair.  In shared mode the
   mux owns the network and exports its scalar counters itself. *)
let network_metrics t =
  let m = Obs.Metrics.create ~node:"network" () in
  (match t.network with
  | None -> ()
  | Some net ->
    add_network_counters m net;
    List.iter
      (fun (src, dst, msgs, bytes) ->
        Obs.Metrics.bump ~by:msgs m (Printf.sprintf "net.link.%s->%s.messages" src dst);
        Obs.Metrics.bump ~by:bytes m (Printf.sprintf "net.link.%s->%s.bytes" src dst))
      (Sim.Network.link_stat_rows net);
    List.iter
      (fun (rs, rd, msgs, bytes) ->
        Obs.Metrics.bump ~by:msgs m (Printf.sprintf "net.region.%s->%s.messages" rs rd);
        Obs.Metrics.bump ~by:bytes m (Printf.sprintf "net.region.%s->%s.bytes" rs rd))
      (Sim.Network.region_stat_rows net));
  m

(* Cluster-wide snapshot: every node's registry merged with the
   network-derived one.  Counters sum and histograms pool, so e.g.
   pipeline.txns_committed is the fleet total. *)
let metrics_snapshot t =
  let node_snaps =
    List.filter_map
      (fun id -> Option.map Obs.Metrics.snapshot (metrics_of t id))
      t.member_order
  in
  Obs.Metrics.merge_all ~node:t.replicaset
    (node_snaps @ [ Obs.Metrics.snapshot (network_metrics t) ])

(* The node currently acting as Raft leader, if any. *)
let raft_leader t =
  List.find_opt
    (fun id ->
      (not (is_crashed t id))
      && match raft_of t id with Some r -> Raft.Node.is_leader r | None -> false)
    t.member_order

let leader_raft t =
  match raft_leader t with
  | Some id -> raft_of t id
  | None -> None

(* The MySQL server currently serving as writable primary, if any. *)
let primary t =
  List.find_map
    (fun s ->
      if Server.role s = Server.Primary && Server.writes_enabled s && not (Server.is_crashed s)
      then Some s
      else None)
    (servers t)

let config_of_specs specs =
  {
    Raft.Types.members =
      List.map
        (fun s ->
          {
            Raft.Types.id = s.spec_id;
            region = s.spec_region;
            voter = s.spec_voter;
            kind = s.spec_kind;
          })
        specs;
  }

(* A standalone cluster's transport: closures over its own network. *)
let transport_of_network topology network =
  {
    tr_send =
      (fun ~src ~dst msg -> Sim.Network.send network ~src ~dst ~size:(Wire.size msg) msg);
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

(* Construct and wire one node object, register its message handler. *)
let make_node t spec ~initial_config =
  let id = spec.spec_id in
  let send_from ~dst msg = t.transport.tr_send ~src:id ~dst msg in
  let clock = t.clock_override id in
  let n =
    match spec.spec_kind with
    | Raft.Types.Mysql_server ->
      Mysql_node
        (Server.create ~tracebuf:t.tracebuf ?clock ~group:t.group ~engine:t.engine ~id
           ~region:spec.spec_region ~replicaset:t.replicaset ~send:send_from
           ~discovery:t.discovery ~params:t.params ~initial_config ~trace:t.trace ())
    | Raft.Types.Logtailer ->
      Tailer_node
        (Logtailer.create ~tracebuf:t.tracebuf ?clock ~group:t.group ~engine:t.engine
           ~id ~region:spec.spec_region ~send:send_from ~params:t.params
           ~initial_config ~trace:t.trace ())
  in
  Hashtbl.replace t.nodes id n;
  t.transport.tr_register id (fun ~src msg ->
      match Hashtbl.find_opt t.nodes id with
      | Some (Mysql_node server) -> Server.handle_message server ~src msg
      | Some (Tailer_node l) -> Logtailer.handle_message l ~src msg
      | None -> ())

let create ?(seed = 7) ?(params = Params.default) ?(latency = Sim.Latency.default)
    ?(echo_trace = false) ?shared ~replicaset ~members () =
  let engine, network, transport, trace, discovery, tracebuf, group, clock_override =
    match shared with
    | None ->
      let engine = Sim.Engine.create ~seed () in
      let topology = Sim.Topology.create () in
      List.iter
        (fun s -> Sim.Topology.add_node topology ~id:s.spec_id ~region:s.spec_region)
        members;
      let network = Sim.Network.create engine topology ~latency () in
      let trace = Sim.Trace.create ~echo:echo_trace engine in
      let discovery = Service_discovery.create engine in
      ( engine,
        Some network,
        transport_of_network topology network,
        trace,
        discovery,
        Obs.Tracebuf.create (),
        0,
        fun _ -> None )
    | Some sh ->
      (* Physical nodes may already exist (another group registered
         them); tr_add_node is idempotent by contract. *)
      List.iter
        (fun s -> sh.sh_transport.tr_add_node ~id:s.spec_id ~region:s.spec_region)
        members;
      ( sh.sh_engine,
        None,
        sh.sh_transport,
        sh.sh_trace,
        sh.sh_discovery,
        sh.sh_tracebuf,
        sh.sh_group,
        sh.sh_clock_of )
  in
  let initial_config = config_of_specs members in
  let t =
    {
      engine;
      network;
      transport;
      trace;
      discovery;
      replicaset;
      group;
      clock_override;
      params;
      nodes = Hashtbl.create 16;
      member_order = List.map (fun s -> s.spec_id) members;
      initial_config;
      tracebuf;
    }
  in
  List.iter (fun s -> make_node t s ~initial_config) members;
  t

(* Create and wire a brand-new node at runtime (the "allocate and prepare
   a new member" step of §2.2's membership changes).  The node starts
   outside the ring; the caller then issues AddMember on the leader. *)
let add_server t spec =
  if Hashtbl.mem t.nodes spec.spec_id then invalid_arg "Cluster.add_server: duplicate id";
  t.transport.tr_add_node ~id:spec.spec_id ~region:spec.spec_region;
  (* The newcomer's view of the ring: the current leader's config (it is
     not a member yet; the AddMember entry will make it one). *)
  let base_config =
    match raft_leader t with
    | Some leader_id -> (
      match raft_of t leader_id with Some r -> Raft.Node.config r | None -> t.initial_config)
    | None -> t.initial_config
  in
  make_node t spec ~initial_config:base_config;
  t.member_order <- t.member_order @ [ spec.spec_id ]

(* ----- clients ----- *)

let register_client t ~id ~region ~handler =
  t.transport.tr_add_node ~id ~region;
  t.transport.tr_register id handler

let send_from_client t ~client ~dst msg = t.transport.tr_send ~src:client ~dst msg

let set_link_latency t ~a ~b ~latency = t.transport.tr_set_link_latency ~a ~b ~latency

(* ----- time control ----- *)

let run_for t duration = Sim.Engine.run_for t.engine duration

let now t = Sim.Engine.now t.engine

(* Advance time in [step]-sized chunks until [pred] holds or [timeout]
   virtual time elapses.  Returns whether the predicate held. *)
let run_until t ?(step = 10.0 *. Sim.Engine.ms) ~timeout pred =
  let deadline = Sim.Engine.now t.engine +. timeout in
  let rec loop () =
    if pred () then true
    else if Sim.Engine.now t.engine >= deadline then false
    else begin
      Sim.Engine.run_for t.engine step;
      loop ()
    end
  in
  loop ()

(* ----- bootstrap ----- *)

(* Deterministically elect [leader_id] and wait until its MySQL side
   finished promotion (writes enabled, discovery published). *)
let bootstrap t ~leader_id =
  (match raft_of t leader_id with
  | Some r -> ignore (Sim.Engine.schedule t.engine ~delay:Sim.Engine.ms (fun () ->
                          Raft.Node.trigger_election r))
  | None -> invalid_arg ("Cluster.bootstrap: unknown node " ^ leader_id));
  let ok =
    run_until t ~timeout:(30.0 *. Sim.Engine.s) (fun () ->
        match primary t with
        | Some s ->
          Server.id s = leader_id
          && Service_discovery.primary_of t.discovery ~replicaset:t.replicaset
             = Some leader_id
        | None -> false)
  in
  if not ok then failwith ("Cluster.bootstrap: " ^ leader_id ^ " did not become primary")

(* ----- fault injection / control ----- *)

let crash t id =
  (match node t id with
  | Some (Mysql_node s) -> Server.crash s
  | Some (Tailer_node l) -> Logtailer.crash l
  | None -> invalid_arg ("Cluster.crash: unknown node " ^ id));
  t.transport.tr_set_down id

let restart t id =
  t.transport.tr_set_up id;
  match node t id with
  | Some (Mysql_node s) -> Server.restart s
  | Some (Tailer_node l) -> Logtailer.restart l
  | None -> invalid_arg ("Cluster.restart: unknown node " ^ id)

let isolate t id = t.transport.tr_isolate id

let heal t id = t.transport.tr_heal id

(* Ask the current leader to gracefully transfer leadership to [target].
   Returns an error when there is no leader or Raft rejects the call. *)
let transfer_leadership t ~target =
  match raft_leader t with
  | None -> Error "no current leader"
  | Some leader_id -> (
    match raft_of t leader_id with
    | Some r -> Raft.Node.transfer_leadership r ~target
    | None -> Error "leader vanished")

let describe t =
  let lines =
    List.map
      (fun id ->
        match node t id with
        | Some (Mysql_node s) when Server.is_crashed s -> Server.id s ^ " [DOWN]"
        | Some (Mysql_node s) -> Server.describe s
        | Some (Tailer_node l) when Logtailer.is_crashed l -> Logtailer.id l ^ " [DOWN]"
        | Some (Tailer_node l) ->
          Printf.sprintf "%s [logtailer] %s" (Logtailer.id l)
            (Raft.Node.describe (Logtailer.raft l))
        | None -> id ^ ": ?")
      t.member_order
  in
  String.concat "\n" lines

(* ----- canonical topologies ----- *)

(* A compact single-region ring: 1 primary-capable + 2 more MySQL voters. *)
let small_members () =
  [ mysql "mysql1" "r1"; mysql "mysql2" "r1"; mysql "mysql3" "r1" ]

(* One region, MySQL + two logtailers: the minimal FlexiRaft data quorum. *)
let single_region_members () =
  [
    mysql "mysql1" "r1";
    logtailer "lt1a" "r1";
    logtailer "lt1b" "r1";
    mysql "mysql2" "r1";
  ]

(* The evaluation topology of §6.1: a primary with two in-region
   logtailers, five followers in five other regions (two logtailers
   each), and two learners. *)
let paper_members () =
  let region i = Printf.sprintf "r%d" i in
  let per_region i =
    [
      mysql (Printf.sprintf "mysql%d" i) (region i);
      logtailer (Printf.sprintf "lt%da" i) (region i);
      logtailer (Printf.sprintf "lt%db" i) (region i);
    ]
  in
  List.concat_map per_region [ 1; 2; 3; 4; 5; 6 ]
  @ [ mysql ~voter:false "learner1" (region 2); mysql ~voter:false "learner2" (region 3) ]
