(* Shared helpers for the test suites. *)

let ms = Sim.Engine.ms
let s = Sim.Engine.s

(* Build and bootstrap a cluster, returning it with mysql1 as primary. *)
let bootstrapped ?(seed = 11) ?(params = Myraft.Params.default) ~members () =
  let cluster = Myraft.Cluster.create ~seed ~params ~replicaset:"rs-test" ~members () in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  cluster

(* Synchronous-looking write: submit through an ephemeral client-less
   direct call and run the engine until the outcome arrives. *)
let direct_write ?(table = "t") ?(timeout = 5.0 *. s) cluster ~key ~value =
  match Myraft.Cluster.primary cluster with
  | None -> Error "no primary"
  | Some server ->
    let result = ref None in
    Myraft.Server.submit_write server ~table
      ~ops:[ Binlog.Event.Insert { key; value } ]
      ~reply:(fun outcome -> result := Some outcome);
    let ok =
      Myraft.Cluster.run_until cluster ~step:ms ~timeout (fun () -> !result <> None)
    in
    if not ok then Error "write timed out"
    else
      match !result with
      | Some (Myraft.Wire.Committed _) -> Ok ()
      | Some (Myraft.Wire.Rejected reason) -> Error reason
      | None -> Error "unreachable"

(* Substring search (no external deps). *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  m = 0
  ||
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let check_ok label = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label e

(* Run [n] writes with distinct keys; returns how many committed. *)
let write_n ?(prefix = "k") cluster n =
  let committed = ref 0 in
  for i = 1 to n do
    match direct_write cluster ~key:(Printf.sprintf "%s%d" prefix i) ~value:"v" with
    | Ok () -> incr committed
    | Error _ -> ()
  done;
  !committed

(* ----- a bare Raft leader whose peers the test plays ----- *)

(* A Raft leader with no network: every AppendEntries it sends is
   captured as (final destination, request), and the first hop of each
   in [hops]; the test answers by hand, so each ack reaches the leader
   exactly when and as the test says. *)
type leader = {
  engine : Sim.Engine.t;
  node : Raft.Node.t;
  trace : Sim.Trace.t;
  sent : (string * Raft.Message.append_entries) Queue.t;
  hops : (string * string) Queue.t; (* (first hop, final destination) *)
}

let rec final_dst ~dst = function
  | Raft.Message.Append_entries ae -> Some (dst, ae)
  | Raft.Message.Proxied { next_hops; inner } ->
    final_dst ~dst:(List.nth next_hops (List.length next_hops - 1)) inner
  | _ -> None

(* [members] are (id, region, voter); the first, a voter, is elected
   leader on the spot. *)
let make_leader ?(params = Raft.Node.default_params) members =
  let engine = Sim.Engine.create ~seed:1 () in
  let trace = Sim.Trace.create engine in
  let sent = Queue.create () and hops = Queue.create () in
  let config =
    {
      Raft.Types.members =
        List.map
          (fun (id, region, voter) ->
            { Raft.Types.id; region; voter; kind = Raft.Types.Mysql_server })
          members;
    }
  in
  let id, region, _ = List.hd members in
  let node =
    Raft.Node.create ~engine ~id ~region
      ~send:(fun ~dst:hop msg ->
        Option.iter
          (fun ((dst, _) as x) ->
            Queue.push x sent;
            Queue.push (hop, dst) hops)
          (final_dst ~dst:hop msg))
      ~log:
        (Raft.Node.log_ops_of_store
           (Binlog.Log_store.create ~mode:Binlog.Log_store.Relay ()))
      ~callbacks:(Raft.Node.default_callbacks ())
      ~params ~initial_config:config ~durable:(Raft.Node.fresh_durable ()) ~trace ()
  in
  Raft.Node.set_force_election_quorum node true;
  Raft.Node.trigger_election node;
  assert (Raft.Node.is_leader node);
  { engine; node; trace; sent; hops }

(* [peer]'s answer to the AppendEntries it numbered [seq]: on success
   its log matches through [appended] and is durable through [durable];
   a failure hints that its log ends at [durable]. *)
let respond h ~peer ~success ~seq ~durable ~appended =
  Raft.Node.handle_message h.node ~src:peer
    (Raft.Message.Append_entries_response
       {
         term = Raft.Node.current_term h.node;
         from = peer;
         success;
         last_log_index = durable;
         last_appended_index = appended;
         request_seq = seq;
         cfg_id = Raft.Node.config_id h.node;
         follower_time = Sim.Engine.now h.engine;
       })

let window_gauge h =
  Obs.Metrics.gauge_value
    (Obs.Metrics.gauge (Raft.Node.metrics h.node) "raft.window_inflight")
