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

(* (table, op) writes as a transaction's events, one [Write_rows] each,
   for [Storage.Engine.prepare]. *)
let rows writes =
  List.map
    (fun (table, op) -> Binlog.Event.make (Binlog.Event.Write_rows { table; ops = [ op ] }))
    writes

(* Minor words allocated by [f], run [rounds] times (once by default).
   [Gc.minor_words] counts every word at once; the [Gc.quick_stat]
   figure the benchmark reads advances only at a minor collection. *)
let minor_words ?(rounds = 1) f =
  let before = Gc.minor_words () in
  for _ = 1 to rounds do
    f ()
  done;
  Gc.minor_words () -. before

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

(* ----- a bare Raft follower the test feeds by hand ----- *)

(* A Raft follower with no network: the test hands it scripted
   AppendEntries, and every response it sends is captured.  What it
   appends reaches a replica applier as {!Myraft.Server} wires it:
   [appended] records each [on_entries_appended] range as (first log
   index, count), and [applied] the indexes the applier processed, in
   order. *)
type follower = {
  f_engine : Sim.Engine.t;
  f_node : Raft.Node.t;
  replies : Raft.Message.append_response Queue.t;
  appended : (int * int) Queue.t;
  applied : int Queue.t;
}

(* [members] are (id, region, voter); the follower is the second. *)
let make_follower members =
  let engine = Sim.Engine.create ~seed:1 () in
  let trace = Sim.Trace.create engine in
  let replies = Queue.create () and appended = Queue.create () and applied = Queue.create () in
  let config =
    {
      Raft.Types.members =
        List.map
          (fun (id, region, voter) ->
            { Raft.Types.id; region; voter; kind = Raft.Types.Mysql_server })
          members;
    }
  in
  let id, region, _ = List.nth members 1 in
  let applier =
    Myraft.Applier.create ~engine ~params:Myraft.Params.default ()
      ~process:(fun e tk ->
        Queue.push (Binlog.Entry.index e) applied;
        Myraft.Applier.submitted tk;
        Myraft.Applier.finished tk ~ok:true)
  in
  Myraft.Applier.start applier ~from_index:1 ~backlog:[];
  let callbacks = Raft.Node.default_callbacks () in
  callbacks.Raft.Node.on_entries_appended <-
    (fun entries ~pos ~len ->
      Queue.push (Binlog.Entry.index entries.(pos), len) appended;
      Myraft.Applier.signal applier entries ~pos ~len);
  callbacks.Raft.Node.on_truncated <-
    (fun removed ->
      Myraft.Applier.handle_truncation applier
        ~from_index:(List.fold_left (fun acc e -> min acc (Binlog.Entry.index e)) max_int removed));
  let node =
    Raft.Node.create ~engine ~id ~region
      ~send:(fun ~dst:_ msg ->
        match msg with
        | Raft.Message.Append_entries_response r -> Queue.push r replies
        | _ -> ())
      ~log:
        (Raft.Node.log_ops_of_store
           (Binlog.Log_store.create ~mode:Binlog.Log_store.Relay ()))
      ~callbacks ~params:Raft.Node.default_params ~initial_config:config
      ~durable:(Raft.Node.fresh_durable ()) ~trace ()
  in
  { f_engine = engine; f_node = node; replies; appended; applied }

(* An AppendEntries from [leader] at [term]: anchored at [prev] =
   (term, index), carrying no-op entries with the given (term, index)
   OpIds. *)
let append_entries ~leader ~term ~prev:(prev_term, prev_index) ~commit entries =
  {
    Raft.Message.term;
    leader_id = leader;
    leader_region = "r1";
    prev_opid = Binlog.Opid.make ~term:prev_term ~index:prev_index;
    payload =
      Raft.Message.Entries
        (Array.of_list
           (List.map
              (fun (term, index) ->
                Binlog.Entry.make ~opid:(Binlog.Opid.make ~term ~index) Binlog.Entry.Noop)
              entries));
    commit_index = commit;
    seq = 0;
    reply_route = [];
    leader_time = 0.0;
    leader_last_index = (match List.rev entries with (_, i) :: _ -> i | [] -> prev_index);
    cfg_id = Raft.Types.cfg_id_zero;
    cfg = None;
  }

(* Feed [ae] to the follower and let its applier run; returns whether it
   was accepted, the ranges [on_entries_appended] reported and the
   indexes the applier processed, each since the last feed. *)
let feed f ~leader ae =
  Raft.Node.handle_message f.f_node ~src:leader (Raft.Message.Append_entries ae);
  Sim.Engine.run_for f.f_engine (10.0 *. ms);
  let drain q =
    let xs = List.of_seq (Queue.to_seq q) in
    Queue.clear q;
    xs
  in
  let success = List.for_all (fun (r : Raft.Message.append_response) -> r.success) (drain f.replies) in
  (success, drain f.appended, drain f.applied)
