(* Multi-Raft deployment: M independent consensus groups multiplexed on
   one set of physical nodes.

   Every group is a full [Myraft.Cluster] (server + logtailer instances
   per member, own applier, own binlog) created in shared mode: one
   engine, one discovery, one trace ring, and a [Cluster.transport]
   closing over the shared {!Mux}, which coalesces all groups' traffic
   into one packet per (src, dst) link per window and carries liveness
   for every co-located group on any frame.  Physical faults are
   physical: crashing a node crashes its instance of every group.

   Leader placement spreads group leaders across regions and nodes
   (initially and via {!rebalance_leaders}, both through
   [Control.Rebalance]); the {!backend} fronts the whole deployment as
   one [Workload.Backend], hashing each (table, key) through the
   {!Router} and caching per-group leaders with rejection-driven
   invalidation. *)

type t = {
  engine : Sim.Engine.t;
  mux : Mux.t;
  trace : Sim.Trace.t;
  discovery : Myraft.Service_discovery.t;
  tracebuf : Obs.Tracebuf.t;
  region_of : (string, string) Hashtbl.t;
  clusters : Myraft.Cluster.t array; (* index = group *)
  router : Router.t;
  params : Myraft.Params.t; (* per-group params incl. hb_suppress_limit *)
  hb_within : float; (* carrier recency horizon for suppression *)
}

let groups t = Array.length t.clusters

let cluster t g =
  if g < 0 || g >= Array.length t.clusters then
    invalid_arg (Printf.sprintf "Shard.Multi.cluster: no group %d" g);
  t.clusters.(g)

let clusters t = Array.to_list t.clusters

let engine t = t.engine

let mux t = t.mux

let router t = t.router

let discovery t = t.discovery

let member_ids t = Myraft.Cluster.member_ids t.clusters.(0)

let mysql_ids t = Myraft.Cluster.mysql_ids t.clusters.(0)

let region_of t id = Hashtbl.find_opt t.region_of id

let replicaset_of_group g = Printf.sprintf "shard%d" g

(* The suppression carrier hook closes over the raft instance, and
   Server.restart builds a fresh raft — so hooks are (re)installed per
   node, at create and again after every restart. *)
let install_carrier t ~group id =
  match Myraft.Cluster.raft_of t.clusters.(group) id with
  | Some r ->
    Raft.Node.set_transport_carrier r (fun ~dst ->
        Mux.carried_recently t.mux ~group ~src:id ~dst ~within:t.hb_within)
  | None -> ()

(* Membership-change tap: when any instance of group [group] adopts a
   new config, drop the router's cached leader for the group if the
   cached node is no longer a member — reconfiguration can evict or
   demote the cached leader without a single client request being
   rejected (the rejection-driven invalidation in [backend] never
   fires for a node that simply stops answering). *)
let install_config_tap t ~group id =
  match Myraft.Cluster.raft_of t.clusters.(group) id with
  | Some r ->
    Raft.Node.subscribe_config_change r (fun cfg ->
        match Router.cached_leader t.router ~group with
        | Some cached when not (Raft.Types.is_member cfg cached) ->
          Router.invalidate_leader t.router ~group
        | _ -> ())
  | None -> ()

let create ?(seed = 7) ?(params = Myraft.Params.default) ?(latency = Sim.Latency.default)
    ?window ?(members = Myraft.Cluster.small_members ()) ~groups () =
  if groups <= 0 then invalid_arg "Shard.Multi.create: groups must be positive";
  (* Coalescing window: scale with the number of co-located groups (more
     groups, more frames worth waiting for) but stay well under the
     in-region one-way latency so it reads as batching, not delay. *)
  let window =
    match window with
    | Some w -> w
    | None -> Float.min (20.0 *. float_of_int groups *. Sim.Engine.us) (150.0 *. Sim.Engine.us)
  in
  (* Heartbeat suppression only makes sense when other groups' frames can
     carry liveness; a single group must keep beating for itself. *)
  let hb_suppress_limit = if groups > 1 then 5 else 0 in
  let params =
    { params with Myraft.Params.raft = { params.Myraft.Params.raft with hb_suppress_limit } }
  in
  let engine = Sim.Engine.create ~seed () in
  let topology = Sim.Topology.create () in
  let mux = Mux.create ~engine ~topology ~latency ~window () in
  let trace = Sim.Trace.create ~echo:false engine in
  let discovery = Myraft.Service_discovery.create engine in
  let tracebuf = Obs.Tracebuf.create () in
  let clocks = Hashtbl.create 16 in (* one oscillator per physical node *)
  let region_of = Hashtbl.create 16 in
  List.iter
    (fun s ->
      Hashtbl.replace clocks s.Myraft.Cluster.spec_id (Sim.Clock.create ~engine ());
      Hashtbl.replace region_of s.Myraft.Cluster.spec_id s.Myraft.Cluster.spec_region)
    members;
  let transport_for group =
    let net = Mux.network mux in
    {
      Myraft.Cluster.tr_send = (fun ~src ~dst msg -> Mux.send mux ~group ~src ~dst msg);
      tr_register = (fun id handler -> Mux.register mux ~group id handler);
      tr_add_node = (fun ~id ~region -> Mux.add_node mux ~id ~region);
      tr_set_down = (fun id -> Sim.Network.set_down net id);
      tr_set_up = (fun id -> Sim.Network.set_up net id);
      tr_isolate = (fun id -> Sim.Network.isolate_node net id);
      tr_heal = (fun id -> Sim.Network.heal_node net id);
      tr_set_link_latency =
        (fun ~a ~b ~latency -> Sim.Network.set_link_latency net ~a ~b ~latency);
    }
  in
  let make_group g =
    let shared =
      {
        Myraft.Cluster.sh_engine = engine;
        sh_trace = trace;
        sh_discovery = discovery;
        sh_tracebuf = tracebuf;
        sh_group = g;
        sh_clock_of = (fun id -> Hashtbl.find_opt clocks id);
        sh_transport = transport_for g;
      }
    in
    Myraft.Cluster.create ~params ~shared ~replicaset:(replicaset_of_group g) ~members ()
  in
  let clusters = Array.init groups make_group in
  let t =
    {
      engine;
      mux;
      trace;
      discovery;
      tracebuf;
      region_of;
      clusters;
      router = Router.create ~groups ();
      params;
      hb_within = params.Myraft.Params.raft.Raft.Node.heartbeat_interval;
    }
  in
  Array.iteri
    (fun g c ->
      List.iter
        (fun id ->
          install_carrier t ~group:g id;
          install_config_tap t ~group:g id)
        (Myraft.Cluster.member_ids c))
    t.clusters;
  (* One liveness tap per physical node: any packet from the current
     leader's process resets every co-located follower instance's
     failover clock (the raft side re-checks role and leader identity). *)
  List.iter
    (fun s ->
      let id = s.Myraft.Cluster.spec_id in
      Mux.set_liveness_tap mux id (fun ~from ->
          Array.iter
            (fun c ->
              if not (Myraft.Cluster.is_crashed c id) then
                match Myraft.Cluster.raft_of c id with
                | Some r -> Raft.Node.note_transport_liveness r ~from
                | None -> ())
            t.clusters))
    members;
  t

(* ----- leader placement ----- *)

let rebalance_groups t =
  Array.to_list
    (Array.mapi
       (fun gi c ->
         {
           Control.Rebalance.g_index = gi;
           g_leader = (fun () -> Myraft.Cluster.raft_leader c);
           g_region_of = (fun n -> Hashtbl.find_opt t.region_of n);
           g_candidates =
             (fun () ->
               List.filter
                 (fun id -> not (Myraft.Cluster.is_crashed c id))
                 (Myraft.Cluster.mysql_ids c));
           g_transfer = (fun ~target -> Myraft.Cluster.transfer_leadership c ~target);
         })
       t.clusters)

let planned_placement t =
  List.filter_map
    (fun (g, target) ->
      Option.map (fun n -> (g.Control.Rebalance.g_index, n)) target)
    (Control.Rebalance.desired_placement ~groups:(rebalance_groups t))

(* Elect every group's placed leader: elections trigger concurrently
   (slightly staggered so M RequestVote bursts don't land in lockstep),
   then one wait until every group's MySQL side finished promotion and
   published itself. *)
let bootstrap t =
  let placement = planned_placement t in
  if List.length placement < groups t then
    failwith "Shard.Multi.bootstrap: some group has no leader candidate";
  List.iter
    (fun (gi, node) ->
      match Myraft.Cluster.raft_of t.clusters.(gi) node with
      | Some r ->
        ignore
          (Sim.Engine.schedule t.engine
             ~delay:(Sim.Engine.ms +. (float_of_int gi *. 200.0 *. Sim.Engine.us))
             (fun () -> Raft.Node.trigger_election r))
      | None -> failwith ("Shard.Multi.bootstrap: unknown node " ^ node))
    placement;
  let settled () =
    List.for_all
      (fun (gi, node) ->
        let c = t.clusters.(gi) in
        (match Myraft.Cluster.primary c with
        | Some s -> Myraft.Server.id s = node
        | None -> false)
        && Myraft.Service_discovery.primary_of t.discovery
             ~replicaset:(Myraft.Cluster.replicaset_name c)
           = Some node)
      placement
  in
  if not (Myraft.Cluster.run_until t.clusters.(0) ~timeout:(60.0 *. Sim.Engine.s) settled)
  then
    failwith "Shard.Multi.bootstrap: groups did not elect their placed leaders"

let rebalance_leaders t = Control.Rebalance.rebalance ~groups:(rebalance_groups t)

let leader_placement t =
  Array.to_list
    (Array.mapi (fun gi c -> (gi, Myraft.Cluster.raft_leader c)) t.clusters)

(* ----- physical fault injection ----- *)

(* Crash granularity is the process: one mysqld hosts its instance of
   every group, so faults apply to all groups of a node at once. *)
let crash_node t id = Array.iter (fun c -> Myraft.Cluster.crash c id) t.clusters

let restart_node t id =
  Array.iter (fun c -> Myraft.Cluster.restart c id) t.clusters;
  (* restart rebuilt each group's raft instance: re-hook suppression
     and the router's config-change invalidation tap *)
  Array.iteri
    (fun g _ ->
      install_carrier t ~group:g id;
      install_config_tap t ~group:g id)
    t.clusters

let isolate_node t id = Array.iter (fun c -> Myraft.Cluster.isolate c id) t.clusters

let heal_node t id = Array.iter (fun c -> Myraft.Cluster.heal c id) t.clusters

(* ----- the routed client surface ----- *)

let backend t =
  let leader_for g =
    match Router.cached_leader t.router ~group:g with
    | Some n -> Some n
    | None -> (
      match
        Myraft.Service_discovery.primary_of t.discovery
          ~replicaset:(replicaset_of_group g)
      with
      | Some n ->
        Router.note_leader t.router ~group:g ~node:n;
        Some n
      | None -> None)
  in
  {
    Workload.Backend.engine = t.engine;
    label = Printf.sprintf "MyRaft[%d shards]" (groups t);
    register_client =
      (fun ~id ~region ~on_reply ~on_read_reply ->
        (* One registration per group: replies arrive on the frame tagged
           with the group that served them, so each handler closure knows
           which leader-cache entry a rejection invalidates. *)
        Array.iteri
          (fun g c ->
            Myraft.Cluster.register_client c ~id ~region ~handler:(fun ~src:_ msg ->
                match msg with
                | Myraft.Wire.Write_reply { write_id; outcome } -> (
                  match outcome with
                  | Myraft.Wire.Committed { gtid } ->
                    on_reply ~write_id ~ok:true ~gtid:(Some gtid)
                  | Myraft.Wire.Rejected _ ->
                    (* stale route: drop the cached leader, rediscover *)
                    Router.invalidate_leader t.router ~group:g;
                    on_reply ~write_id ~ok:false ~gtid:None)
                | Myraft.Wire.Read_reply { read_id; outcome } -> on_read_reply ~read_id ~outcome
                | _ -> ()))
          t.clusters);
    send_write =
      (fun ~client ~write_id ~table ~ops ->
        let key =
          match ops with op :: _ -> Binlog.Event.row_op_key op | [] -> ""
        in
        let g = Router.group_of t.router ~table ~key in
        match leader_for g with
        | None -> false
        | Some dst ->
          Myraft.Cluster.send_from_client t.clusters.(g) ~client ~dst
            (Myraft.Wire.Write_request { write_id; table; ops; client });
          true);
    send_read =
      (fun ~client ~read_id ~level ~table ~key ~target ->
        let g = Router.group_of t.router ~table ~key in
        let dst =
          (* an explicit replica target hosts every group, so the hash
             only picks which instance on it answers *)
          match target with Some _ as x -> x | None -> leader_for g
        in
        match dst with
        | None -> false
        | Some dst ->
          Myraft.Cluster.send_from_client t.clusters.(g) ~client ~dst
            (Myraft.Wire.Read_request
               { read_id; level; read_table = table; key; read_client = client });
          true);
    read_targets = (fun () -> mysql_ids t);
    set_client_latency =
      (fun ~client ~latency ->
        List.iter
          (fun member ->
            Sim.Network.set_link_latency (Mux.network t.mux) ~a:client ~b:member ~latency)
          (member_ids t));
    member_ids = (fun () -> member_ids t);
  }

(* ----- observability ----- *)

(* Deployment-wide snapshot: every group's merged registries (sums and
   pools across groups too — pipeline.txns_committed becomes the
   all-shard total), the mux's shard.mux.* / net.* rows, and shard-level
   placement gauges. *)
let metrics_snapshot t =
  let shard = Obs.Metrics.create ~node:"shard" () in
  Obs.Metrics.set shard "shard.groups" (float_of_int (groups t));
  let leaders = List.filter_map snd (leader_placement t) in
  Obs.Metrics.set shard "shard.leaders" (float_of_int (List.length leaders));
  let distinct_regions =
    List.sort_uniq compare (List.filter_map (fun n -> region_of t n) leaders)
  in
  Obs.Metrics.set shard "shard.leader_regions"
    (float_of_int (List.length distinct_regions));
  let distinct_nodes = List.sort_uniq compare leaders in
  Obs.Metrics.set shard "shard.leader_nodes" (float_of_int (List.length distinct_nodes));
  Obs.Metrics.merge_all ~node:"multi"
    (Array.to_list (Array.map Myraft.Cluster.metrics_snapshot t.clusters)
    @ [ Obs.Metrics.snapshot (Mux.metrics t.mux); Obs.Metrics.snapshot shard ])

let describe t =
  String.concat "\n"
    (Array.to_list
       (Array.mapi
          (fun g c ->
            Printf.sprintf "-- shard%d (leader=%s)\n%s" g
              (Option.value (Myraft.Cluster.raft_leader c) ~default:"?")
              (Myraft.Cluster.describe c))
          t.clusters))
