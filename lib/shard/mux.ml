(* The multiplexing transport of the multi-Raft deployment.

   One [Sim.Network] carries *packets*; a packet is a batch of group-
   tagged frames that accumulated towards the same (src, dst) physical
   link within one coalescing window (Sim.Coalesce).  Many co-located
   Raft groups thus share one network message: batched AppendEntries
   from different groups ride together, and one group's beat doubles as
   liveness for every group on the link — the receive path fires a
   per-node liveness tap before demultiplexing, and the send path
   answers "did anything recently go to dst?" so idle leaders can
   suppress their own empty AEs (Raft.Node.hb_suppress_limit).

   Framing: a packet pays a fixed header plus a small per-frame tag on
   top of the payload wire sizes, so coalescing is visible in net.bytes
   as amortization, not magic. *)

type frame = { fr_group : int; fr_payload : Myraft.Wire.t }

type packet = frame list

let packet_header_bytes = 16

let frame_tag_bytes = 8

let packet_size frames =
  List.fold_left
    (fun acc fr -> acc + frame_tag_bytes + Myraft.Wire.size fr.fr_payload)
    packet_header_bytes frames

type t = {
  engine : Sim.Engine.t;
  topology : Sim.Topology.t;
  network : packet Sim.Network.t;
  coalesce : frame Sim.Coalesce.t;
  handlers : (int * string, src:string -> Myraft.Wire.t -> unit) Hashtbl.t;
  (* (group, node) -> handler; one physical node hosts every group *)
  liveness_taps : (string, from:string -> unit) Hashtbl.t;
  (* node -> tap, fired once per delivered packet before demux *)
  last_push : (string * string, (int, float) Hashtbl.t) Hashtbl.t;
  (* (src, dst) -> group -> last engine time a frame was pushed; feeds
     the heartbeat-suppression carrier check *)
  mutable packets_sent : int;
  mutable frames_sent : int;
  mutable bytes_sent : int;
  mutable taps_fired : int;
}

let create ~engine ~topology ?latency ~window () =
  let network =
    match latency with
    | Some latency -> Sim.Network.create engine topology ~latency ()
    | None -> Sim.Network.create engine topology ()
  in
  let t_ref = ref None in
  let flush ~src ~dst frames =
    match !t_ref with
    | None -> ()
    | Some t ->
      t.packets_sent <- t.packets_sent + 1;
      t.frames_sent <- t.frames_sent + List.length frames;
      let size = packet_size frames in
      t.bytes_sent <- t.bytes_sent + size;
      Sim.Network.send t.network ~src ~dst ~size frames
  in
  let t =
    {
      engine;
      topology;
      network;
      coalesce = Sim.Coalesce.create ~engine ~window ~flush ();
      handlers = Hashtbl.create 64;
      liveness_taps = Hashtbl.create 16;
      last_push = Hashtbl.create 64;
      packets_sent = 0;
      frames_sent = 0;
      bytes_sent = 0;
      taps_fired = 0;
    }
  in
  t_ref := Some t;
  t

let network t = t.network

let window t = Sim.Coalesce.window t.coalesce

(* Register the physical node's demux handler once; groups then attach
   per-group handlers into the table.  The liveness tap fires once per
   packet — a frame from [src]'s process proves the process is alive,
   which is all a follower's failover clock needs. *)
let ensure_demux t node =
  Sim.Network.register t.network node (fun ~src frames ->
      (match Hashtbl.find_opt t.liveness_taps node with
      | Some tap ->
        t.taps_fired <- t.taps_fired + 1;
        tap ~from:src
      | None -> ());
      List.iter
        (fun fr ->
          match Hashtbl.find_opt t.handlers (fr.fr_group, node) with
          | Some handler -> handler ~src fr.fr_payload
          | None -> ())
        frames)

let add_node t ~id ~region =
  if not (Sim.Topology.mem t.topology id) then begin
    Sim.Topology.add_node t.topology ~id ~region;
    ensure_demux t id
  end

let register t ~group node handler =
  Hashtbl.replace t.handlers (group, node) handler;
  ensure_demux t node

let set_liveness_tap t node tap = Hashtbl.replace t.liveness_taps node tap

let note_push t ~group ~src ~dst =
  let key = (src, dst) in
  let per_group =
    match Hashtbl.find_opt t.last_push key with
    | Some tbl -> tbl
    | None ->
      let tbl = Hashtbl.create 8 in
      Hashtbl.replace t.last_push key tbl;
      tbl
  in
  Hashtbl.replace per_group group (Sim.Engine.now t.engine)

let send t ~group ~src ~dst msg =
  note_push t ~group ~src ~dst;
  Sim.Coalesce.push t.coalesce ~src ~dst { fr_group = group; fr_payload = msg }

(* Heartbeat-suppression carrier check: did any *other* group push a
   frame onto (src, dst) within [within]?  The asking group's own past
   beats don't count — with nothing to piggyback on, it must keep
   beating itself (so a 1-group deployment never suppresses). *)
let carried_recently t ~group ~src ~dst ~within =
  match Hashtbl.find_opt t.last_push (src, dst) with
  | None -> false
  | Some per_group ->
    let now = Sim.Engine.now t.engine in
    Hashtbl.fold
      (fun g at acc -> acc || (g <> group && now -. at <= within))
      per_group false

(* ----- counters ----- *)

let packets_sent t = t.packets_sent

let frames_sent t = t.frames_sent

let bytes_sent t = t.bytes_sent

(* Registry-shaped view of the transport's counters: the shard.* mux
   rows plus the packet network's net.* rows (the cluster cannot dress
   them itself in shared mode — it owns no network). *)
let metrics t =
  let m = Obs.Metrics.create ~node:"mux" () in
  Obs.Metrics.bump ~by:t.packets_sent m "shard.mux.packets";
  Obs.Metrics.bump ~by:t.frames_sent m "shard.mux.frames";
  Obs.Metrics.bump ~by:t.bytes_sent m "shard.mux.bytes";
  Obs.Metrics.bump ~by:(max 0 (t.frames_sent - t.packets_sent)) m "shard.mux.coalesced";
  Obs.Metrics.bump ~by:t.taps_fired m "shard.mux.liveness_taps";
  if t.packets_sent > 0 then
    Obs.Metrics.set m "shard.mux.frames_per_packet_mean"
      (float_of_int t.frames_sent /. float_of_int t.packets_sent);
  Myraft.Cluster.add_network_counters m t.network;
  m
