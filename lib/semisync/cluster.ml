(* Prior-setup replicaset assembly: MySQL servers + semi-sync ackers on
   the simulated network with an out-of-band orchestrator.  Mirrors
   [Myraft.Cluster]'s surface so the A/B experiments of §6 can drive both
   stacks identically. *)

type node = Mysql_node of Server.t | Acker_node of Acker.t

type t = {
  engine : Sim.Engine.t;
  topology : Sim.Topology.t;
  network : Wire.t Sim.Network.t;
  trace : Sim.Trace.t;
  discovery : Myraft.Service_discovery.t;
  replicaset : string;
  costs : Myraft.Params.t;
  nodes : (string, node) Hashtbl.t;
  member_order : string list;
  member_kinds : (string * Raft.Types.member_kind) list;
  mutable orchestrator : Orchestrator.t option;
}

let engine t = t.engine

let network t = t.network

let trace t = t.trace

let discovery t = t.discovery

let replicaset_name t = t.replicaset

let member_ids t = t.member_order

let orchestrator t = Option.get t.orchestrator

let server t id =
  match Hashtbl.find_opt t.nodes id with Some (Mysql_node s) -> Some s | _ -> None

let acker t id =
  match Hashtbl.find_opt t.nodes id with Some (Acker_node a) -> Some a | _ -> None

let servers t = List.filter_map (fun id -> server t id) t.member_order

(* MySQL members only: valid client read targets (ackers hold no tables). *)
let mysql_ids t = List.filter (fun id -> server t id <> None) t.member_order

let ackers t = List.filter_map (fun id -> acker t id) t.member_order

let primary t =
  List.find_opt
    (fun s ->
      Server.role s = Server.Primary && Server.writes_enabled s && not (Server.is_crashed s))
    (servers t)

(* Shipping peers for a given primary: every other member; ackers are the
   semi-sync voters. *)
let peers_for t primary_id =
  List.filter_map
    (fun (id, kind) ->
      if id = primary_id then None else Some (id, kind = Raft.Types.Logtailer))
    t.member_kinds

let orchestrator_node_id = "orchestrator"

let create ?(seed = 7) ?(costs = Myraft.Params.default) ?(latency = Sim.Latency.default)
    ?(echo_trace = false) ~replicaset ~members () =
  let engine = Sim.Engine.create ~seed () in
  let topology = Sim.Topology.create () in
  List.iter
    (fun s ->
      Sim.Topology.add_node topology ~id:s.Myraft.Cluster.spec_id
        ~region:s.Myraft.Cluster.spec_region)
    members;
  Sim.Topology.add_node topology ~id:orchestrator_node_id ~region:"control";
  let network = Sim.Network.create engine topology ~latency () in
  let trace = Sim.Trace.create ~echo:echo_trace engine in
  let discovery = Myraft.Service_discovery.create engine in
  let t =
    {
      engine;
      topology;
      network;
      trace;
      discovery;
      replicaset;
      costs;
      nodes = Hashtbl.create 16;
      member_order = List.map (fun s -> s.Myraft.Cluster.spec_id) members;
      member_kinds =
        List.map (fun s -> (s.Myraft.Cluster.spec_id, s.Myraft.Cluster.spec_kind)) members;
      orchestrator = None;
    }
  in
  let send ~src ~dst msg = Sim.Network.send network ~src ~dst ~size:(Wire.size msg) msg in
  List.iter
    (fun s ->
      let id = s.Myraft.Cluster.spec_id in
      let send_from ~dst msg = send ~src:id ~dst msg in
      let n =
        match s.Myraft.Cluster.spec_kind with
        | Raft.Types.Mysql_server ->
          Mysql_node
            (Server.create ~engine ~id ~region:s.Myraft.Cluster.spec_region ~replicaset
               ~send:send_from ~discovery ~costs ~trace ())
        | Raft.Types.Logtailer ->
          Acker_node
            (Acker.create ~engine ~id ~region:s.Myraft.Cluster.spec_region ~send:send_from
               ~trace ())
      in
      Hashtbl.replace t.nodes id n;
      Sim.Network.register network id (fun ~src msg ->
          match Hashtbl.find_opt t.nodes id with
          | Some (Mysql_node srv) -> Server.handle_message srv ~src msg
          | Some (Acker_node a) -> Acker.handle_message a ~src msg
          | None -> ()))
    members;
  let ctx =
    {
      Orchestrator.engine;
      trace;
      rng = Sim.Rng.split (Sim.Engine.rng engine);
      discovery;
      replicaset;
      orchestrator_id = orchestrator_node_id;
      send = (fun ~dst msg -> send ~src:orchestrator_node_id ~dst msg);
      servers = (fun () -> servers t);
      ackers = (fun () -> ackers t);
      peers_for = (fun primary_id -> peers_for t primary_id);
    }
  in
  let orch = Orchestrator.create ctx ~initial_primary:"" in
  t.orchestrator <- Some orch;
  Sim.Network.register network orchestrator_node_id (fun ~src msg ->
      Orchestrator.handle_message orch ~src msg);
  t

(* ----- time control (mirrors Myraft.Cluster) ----- *)

let run_for t duration = Sim.Engine.run_for t.engine duration

let now t = Sim.Engine.now t.engine

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

(* Start [leader_id] as the semi-sync primary, point everyone at it,
   publish discovery, and start health monitoring. *)
let bootstrap t ~leader_id =
  (match server t leader_id with
  | None -> invalid_arg ("Semisync bootstrap: unknown server " ^ leader_id)
  | Some srv ->
    Server.start_as_primary srv ~peers:(peers_for t leader_id);
    List.iter
      (fun s -> if Server.id s <> leader_id then Server.repoint s ~new_upstream:leader_id)
      (servers t);
    List.iter (fun a -> Acker.repoint a ~new_upstream:leader_id) (ackers t);
    Myraft.Service_discovery.publish_primary t.discovery ~replicaset:t.replicaset
      ~primary:leader_id ~delay:(10.0 *. Sim.Engine.ms));
  let orch = orchestrator t in
  orch.Orchestrator.current_primary <- leader_id;
  ignore
    (Sim.Engine.schedule t.engine ~delay:Sim.Engine.ms (fun () ->
         Orchestrator.start_monitoring orch));
  (* propagate the promotion + discovery publication *)
  Sim.Engine.run_for t.engine (100.0 *. Sim.Engine.ms)

(* ----- fault injection ----- *)

let crash t id =
  (match Hashtbl.find_opt t.nodes id with
  | Some (Mysql_node s) -> Server.crash s
  | Some (Acker_node a) -> Acker.crash a
  | None -> invalid_arg ("Semisync crash: unknown node " ^ id));
  Sim.Network.set_down t.network id

let restart t id =
  Sim.Network.set_up t.network id;
  match Hashtbl.find_opt t.nodes id with
  | Some (Mysql_node s) ->
    let upstream =
      Option.map Server.id (primary t)
    in
    Server.restart s ~upstream
  | Some (Acker_node a) ->
    Acker.restart a;
    (match primary t with
    | Some p -> Acker.repoint a ~new_upstream:(Server.id p)
    | None -> ())
  | None -> invalid_arg ("Semisync restart: unknown node " ^ id)

(* ----- clients ----- *)

let register_client t ~id ~region ~handler =
  Sim.Topology.add_node t.topology ~id ~region;
  Sim.Network.register t.network id handler

let send_from_client t ~client ~dst msg =
  Sim.Network.send t.network ~src:client ~dst ~size:(Wire.size msg) msg

let set_link_latency t ~a ~b ~latency = Sim.Network.set_link_latency t.network ~a ~b ~latency

(* A write-availability probe identical in shape to MyRaft's. *)
let start_probe ?(region = "r1") ?(probe_interval = 5.0 *. Sim.Engine.ms)
    ?(write_timeout = 1.0 *. Sim.Engine.s) ?(client_latency = 500.0 *. Sim.Engine.us) t
    ~client_id =
  let outstanding = Hashtbl.create 64 in
  register_client t ~id:client_id ~region ~handler:(fun ~src:_ msg ->
      match msg with
      | Wire.Write_reply { write_id; ok; _ } -> (
        match Hashtbl.find_opt outstanding write_id with
        | Some settle ->
          Hashtbl.remove outstanding write_id;
          settle ok
        | None -> ())
      | _ -> ());
  List.iter
    (fun member -> set_link_latency t ~a:client_id ~b:member ~latency:client_latency)
    t.member_order;
  let next_id = ref 1 in
  let issue ~on_outcome =
    match Myraft.Service_discovery.primary_of t.discovery ~replicaset:t.replicaset with
    | None -> on_outcome false
    | Some dst ->
      let write_id = !next_id in
      incr next_id;
      Hashtbl.replace outstanding write_id on_outcome;
      let key = Printf.sprintf "probe-%s-%d" client_id write_id in
      send_from_client t ~client:client_id ~dst
        (Wire.Write_request
           {
             write_id;
             table = "probe";
             ops = [ Binlog.Event.Insert { key; value = "x" } ];
             client = client_id;
           })
  in
  Sim.Probe.start ~interval:probe_interval ~timeout:write_timeout t.engine ~issue

let describe t =
  String.concat "\n"
    (List.map
       (fun id ->
         match Hashtbl.find_opt t.nodes id with
         | Some (Mysql_node s) ->
           Printf.sprintf "%s [%s%s] seq=%d applied=%d" id
             (match Server.role s with Server.Primary -> "primary" | Server.Replica -> "replica")
             (if Server.writes_enabled s then ",rw" else ",ro")
             (Server.last_seq s) (Server.applied_seq s)
         | Some (Acker_node a) ->
           Printf.sprintf "%s [acker] seq=%d" id (Acker.last_seq a)
         | None -> id ^ ": ?")
       t.member_order)
