(* Bare Raft nodes with no network: a leader whose peers the caller
   plays, and a follower the caller feeds by hand. *)

(* [regions] regions r1, r2, ... of three voters each, n10-n12 in r1,
   n20-n22 in r2 and so on, as (id, region, voter).  Three regions make
   the nine-member failover ring, six the paper's §6.1 ring. *)
let ring regions =
  List.concat_map
    (fun r ->
      List.init 3 (fun i -> (Printf.sprintf "n%d%d" r i, Printf.sprintf "r%d" r, true)))
    (List.init regions (fun r -> r + 1))

(* The configuration of [members], given as (id, region, voter). *)
let config members =
  {
    Raft.Types.members =
      List.map
        (fun (id, region, voter) ->
          { Raft.Types.id; region; voter; kind = Raft.Types.Mysql_server })
        members;
  }

(* A node of [config] for the member (id, region, voter), on [log]
   (default: a fresh relay log). *)
let node ~engine ~trace ~send ?(callbacks = Raft.Node.default_callbacks ())
    ?(params = Raft.Node.default_params) ?log ~config (id, region, _) =
  let log =
    match log with
    | Some log -> log
    | None -> Binlog.Log_store.create ~mode:Binlog.Log_store.Relay ()
  in
  Raft.Node.create ~engine ~id ~region ~send ~log
    ~callbacks ~params ~initial_config:config ~durable:(Raft.Node.fresh_durable ())
    ~trace ()

(* ----- a leader whose peers the caller plays ----- *)

(* A Raft leader with no network: every AppendEntries it sends is
   captured as (final destination, request), and the first hop of each
   in [hops]; the caller answers by hand, so each ack reaches the leader
   exactly when and as the caller says. *)
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
   leader on the spot, on [log] if given. *)
let make_leader ?params ?log members =
  let engine = Sim.Engine.create ~seed:1 () in
  let trace = Sim.Trace.create engine in
  let sent = Queue.create () and hops = Queue.create () in
  let send ~dst:hop msg =
    Option.iter
      (fun ((dst, _) as x) ->
        Queue.push x sent;
        Queue.push (hop, dst) hops)
      (final_dst ~dst:hop msg)
  in
  let node =
    node ~engine ~trace ~send ?params ?log ~config:(config members) (List.hd members)
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

(* A caught-up peer's success answer to [ae]: its log matches and is
   durable through [through]. *)
let ack ~peer ~through (ae : Raft.Message.append_entries) =
  Raft.Message.Append_entries_response
    {
      term = ae.term;
      from = peer;
      success = true;
      last_log_index = through;
      last_appended_index = through;
      request_seq = ae.seq;
      cfg_id = ae.cfg_id;
      follower_time = 0.0;
    }

(* ----- a follower the caller feeds by hand ----- *)

(* A Raft follower with no network: the caller hands it scripted
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
  let send ~dst:_ = function
    | Raft.Message.Append_entries_response r -> Queue.push r replies
    | _ -> ()
  in
  let node =
    node ~engine ~trace ~send ~callbacks ~config:(config members) (List.nth members 1)
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
  Sim.Engine.run_for f.f_engine (10.0 *. Sim.Engine.ms);
  let drain q =
    let xs = List.of_seq (Queue.to_seq q) in
    Queue.clear q;
    xs
  in
  let success = List.for_all (fun (r : Raft.Message.append_response) -> r.success) (drain f.replies) in
  (success, drain f.appended, drain f.applied)
