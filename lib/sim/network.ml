(* Simulated message network.

   Typed over the protocol's message type.  Delivery incurs a one-way
   latency drawn from the latency model; messages to crashed nodes or
   across a partition are silently dropped (the transports the paper's
   systems run over are not reliable either — Raft tolerates loss).

   The network also keeps per-(src,dst) and per-region-pair byte counters,
   which the proxying evaluation (§4.2.2) reads to compare cross-region
   bandwidth with and without PROXY_OP forwarding. *)

type stats = {
  mutable messages : int;
  mutable bytes : int;
}

(* Per-node / per-link message fault model (the lossy-link conditions of
   "From Consensus to Chaos"): each delivery rolls independently against
   every spec that covers it — the link itself plus both endpoints. *)
type fault_spec = {
  drop : float; (* P(message silently lost) *)
  duplicate : float; (* P(a second copy is delivered) *)
  reorder : float; (* P(an extra random delay shuffles this message) *)
  reorder_delay : float; (* max extra delay for reordered/duplicated copies, µs *)
  extra_latency : float; (* deterministic added latency — a transient spike, µs *)
}

let no_faults =
  { drop = 0.0; duplicate = 0.0; reorder = 0.0; reorder_delay = 0.0; extra_latency = 0.0 }

(* Links carry ordered streams (TCP): a message never overtakes an
   earlier one on the same directed link, however the jittered latency
   samples land; only explicit reorder/duplicate faults may escape the
   stream.  [at] is the latest in-order delivery scheduled on the link.
   An all-float record, so advancing it stores the float unboxed. *)
type clock = { mutable at : float }

type 'msg t = {
  engine : Engine.t;
  topology : Topology.t;
  latency : Latency.t;
  rng : Rng.t;
  handlers : (Topology.node_id, src:Topology.node_id -> 'msg -> unit) Hashtbl.t;
  down : (Topology.node_id, unit) Hashtbl.t;
  (* Partitions are sets of unordered region pairs plus isolated nodes. *)
  cut_region_pairs : (Topology.region * Topology.region, unit) Hashtbl.t;
  isolated : (Topology.node_id, unit) Hashtbl.t;
  (* Directed links by source, then destination: two string lookups and
     no key allocated per message. *)
  links : (Topology.node_id, (Topology.node_id, 'msg link) Hashtbl.t) Hashtbl.t;
  (* Per region pair; each link's record shares its pair's row.  Rows
     survive [reset_stats] zeroed, and a zero row is reported as absent. *)
  region_stats : (Topology.region * Topology.region, stats) Hashtbl.t;
  (* Per-node-pair fixed one-way latencies (e.g. a client colocated
     with the primary, or a client pinned at 10 ms from it), as
     zero-span laws; a link takes its pair's when it first carries
     traffic, in place of its region pair's. *)
  link_latency : (Topology.node_id * Topology.node_id, Latency.law) Hashtbl.t;
  node_faults : (Topology.node_id, fault_spec) Hashtbl.t;
  link_faults : (Topology.node_id * Topology.node_id, fault_spec) Hashtbl.t;
  (* Split lazily on first fault installation so fault-free runs keep the
     exact RNG streams they had before the fault model existed, while
     chaos runs stay fully determined by the engine seed. *)
  mutable fault_rng : Rng.t option;
  mutable dropped : int;
  mutable fault_dropped : int;
  mutable duplicated : int;
  mutable reordered : int;
}

(* Everything a send or a delivery needs to know about one directed
   link, created on its first send: its network, both regions (a node's
   region never changes), the unordered region pair partitions are keyed
   by, the link's stats row and its region pair's row, the FIFO clock,
   and the delay law, fixed when the link is created.  A delivery event
   carries the link and the message, so it needs no closure. *)
and 'msg link = {
  net : 'msg t;
  src : Topology.node_id;
  dst : Topology.node_id;
  src_region : Topology.region;
  dst_region : Topology.region;
  cut_key : Topology.region * Topology.region;
  stats : stats;
  pair_stats : stats;
  fifo : clock;
  mutable law : Latency.law;
}

let create engine topology ?(latency = Latency.default) () =
  {
    engine;
    topology;
    latency;
    rng = Rng.split (Engine.rng engine);
    handlers = Hashtbl.create 32;
    down = Hashtbl.create 8;
    cut_region_pairs = Hashtbl.create 4;
    isolated = Hashtbl.create 4;
    links = Hashtbl.create 32;
    region_stats = Hashtbl.create 16;
    link_latency = Hashtbl.create 8;
    node_faults = Hashtbl.create 4;
    link_faults = Hashtbl.create 4;
    fault_rng = None;
    dropped = 0;
    fault_dropped = 0;
    duplicated = 0;
    reordered = 0;
  }

let ordered_pair a b = if a <= b then (a, b) else (b, a)

let find_link t ~src ~dst =
  match Hashtbl.find t.links src with
  | out -> Hashtbl.find_opt out dst
  | exception Not_found -> None

(* The record for [src -> dst], created on the link's first send. *)
let link t ~src ~dst =
  let out =
    match Hashtbl.find t.links src with
    | out -> out
    | exception Not_found ->
      let out = Hashtbl.create 16 in
      Hashtbl.replace t.links src out;
      out
  in
  match Hashtbl.find out dst with
  | l -> l
  | exception Not_found ->
    let src_region = Topology.region_of t.topology src in
    let dst_region = Topology.region_of t.topology dst in
    let pair_stats =
      match Hashtbl.find_opt t.region_stats (src_region, dst_region) with
      | Some st -> st
      | None ->
        let st = { messages = 0; bytes = 0 } in
        Hashtbl.replace t.region_stats (src_region, dst_region) st;
        st
    in
    let l =
      {
        net = t;
        src;
        dst;
        src_region;
        dst_region;
        cut_key = ordered_pair src_region dst_region;
        stats = { messages = 0; bytes = 0 };
        pair_stats;
        fifo = { at = 0.0 };
        law =
          (match Hashtbl.find_opt t.link_latency (src, dst) with
          | Some law -> law
          | None -> Latency.law t.latency ~src:src_region ~dst:dst_region);
      }
    in
    Hashtbl.replace out dst l;
    l

(* Fix the one-way latency between two nodes (both directions). *)
let set_link_latency t ~a ~b ~latency =
  let law = { Latency.lo = latency; span = 0.0 } in
  Hashtbl.replace t.link_latency (a, b) law;
  Hashtbl.replace t.link_latency (b, a) law;
  Option.iter (fun l -> l.law <- law) (find_link t ~src:a ~dst:b);
  Option.iter (fun l -> l.law <- law) (find_link t ~src:b ~dst:a)

let topology t = t.topology

let register t node handler = Hashtbl.replace t.handlers node handler

let set_down t node = Hashtbl.replace t.down node ()

let set_up t node = Hashtbl.remove t.down node

let is_up t node = not (Hashtbl.mem t.down node)

let cut_regions t r1 r2 = Hashtbl.replace t.cut_region_pairs (ordered_pair r1 r2) ()

let heal_regions t r1 r2 = Hashtbl.remove t.cut_region_pairs (ordered_pair r1 r2)

let isolate_node t node = Hashtbl.replace t.isolated node ()

let heal_node t node = Hashtbl.remove t.isolated node

(* ----- message fault model ----- *)

let fault_rng t =
  match t.fault_rng with
  | Some rng -> rng
  | None ->
    let rng = Rng.split t.rng in
    t.fault_rng <- Some rng;
    rng

let set_node_faults t node spec =
  ignore (fault_rng t);
  if spec = no_faults then Hashtbl.remove t.node_faults node
  else Hashtbl.replace t.node_faults node spec

let clear_node_faults t node = Hashtbl.remove t.node_faults node

let node_faults t node =
  Option.value (Hashtbl.find_opt t.node_faults node) ~default:no_faults

let set_link_faults t ~src ~dst spec =
  ignore (fault_rng t);
  if spec = no_faults then Hashtbl.remove t.link_faults (src, dst)
  else Hashtbl.replace t.link_faults (src, dst) spec

let clear_link_faults t ~src ~dst = Hashtbl.remove t.link_faults (src, dst)

let faulted_nodes t = Hashtbl.fold (fun n _ acc -> n :: acc) t.node_faults []

let heal_all t =
  Hashtbl.reset t.cut_region_pairs;
  Hashtbl.reset t.isolated;
  Hashtbl.reset t.node_faults;
  Hashtbl.reset t.link_faults

(* Each check first asks whether its table is empty, as it is in every
   healthy run. *)
let is_down t node = Hashtbl.length t.down > 0 && Hashtbl.mem t.down node

let partitioned t l =
  (Hashtbl.length t.isolated > 0
  && (Hashtbl.mem t.isolated l.src || Hashtbl.mem t.isolated l.dst))
  || (Hashtbl.length t.cut_region_pairs > 0 && Hashtbl.mem t.cut_region_pairs l.cut_key)

let bump st ~bytes =
  st.messages <- st.messages + 1;
  st.bytes <- st.bytes + bytes

(* The fault specs covering a (src, dst) delivery: the directed link plus
   both endpoints.  Usually empty — chaos runs install a handful. *)
let specs_for t ~src ~dst =
  if Hashtbl.length t.link_faults = 0 && Hashtbl.length t.node_faults = 0 then []
  else
    let add acc = function Some s -> s :: acc | None -> acc in
    add
      (add
         (add [] (Hashtbl.find_opt t.link_faults (src, dst)))
         (Hashtbl.find_opt t.node_faults src))
      (Hashtbl.find_opt t.node_faults dst)

(* The one delivery function: every delivery event is [deliver link msg]. *)
let deliver l msg =
  let t = l.net in
  if is_down t l.dst || partitioned t l then t.dropped <- t.dropped + 1
  else
    match Hashtbl.find t.handlers l.dst with
    | handler -> handler ~src:l.src msg
    | exception Not_found -> t.dropped <- t.dropped + 1

let deliver_after l ~delay msg = ignore (Engine.schedule_call l.net.engine ~delay deliver l msg)

(* The fault steps of a send, each a walk over the covering specs in
   order (link, source, destination).  On a healthy link the list is
   empty and each returns at once, building nothing.  The drop roll stops
   at the first spec that loses the message. *)
let rec lost t = function
  | [] -> false
  | s :: specs -> (s.drop > 0.0 && Rng.float (fault_rng t) < s.drop) || lost t specs

let rec extra_latency acc = function
  | [] -> acc
  | s :: specs -> extra_latency (acc +. s.extra_latency) specs

let rec reorder_extra t acc = function
  | [] -> acc
  | s :: specs ->
    let acc =
      if s.reorder > 0.0 && Rng.float (fault_rng t) < s.reorder then begin
        t.reordered <- t.reordered + 1;
        acc +. Rng.uniform (fault_rng t) ~lo:0.0 ~hi:s.reorder_delay
      end
      else acc
    in
    reorder_extra t acc specs

(* Duplication: a second copy arrives after an extra random delay,
   outside the stream, so the two copies may arrive out of order. *)
let rec duplicate t l ~delay msg = function
  | [] -> ()
  | s :: specs ->
    if s.duplicate > 0.0 && Rng.float (fault_rng t) < s.duplicate then begin
      t.duplicated <- t.duplicated + 1;
      let extra = Rng.uniform (fault_rng t) ~lo:0.0 ~hi:(max s.reorder_delay 1.0) in
      deliver_after l ~delay:(delay +. extra) msg
    end;
    duplicate t l ~delay msg specs

(* Send a message.  [size] is the wire size in bytes and is accounted even
   for messages that are later dropped at delivery (the sender spent the
   bandwidth either way). *)
let send t ~src ~dst ~size msg =
  let l = link t ~src ~dst in
  bump l.stats ~bytes:size;
  bump l.pair_stats ~bytes:size;
  if is_down t src || partitioned t l then t.dropped <- t.dropped + 1
  else begin
    let specs = specs_for t ~src ~dst in
    if lost t specs then begin
      t.dropped <- t.dropped + 1;
      t.fault_dropped <- t.fault_dropped + 1
    end
    else begin
      (* A zero span is a fixed delay and draws nothing. *)
      let law = l.law in
      let base_delay =
        (if law.span = 0.0 then law.lo else law.lo +. (law.span *. Rng.float t.rng))
        +. extra_latency 0.0 specs
      in
      (* FIFO stream semantics: clamp the delivery behind the link's
         latest in-order delivery, so jittered latency samples cannot
         reorder a healthy link (pipelined AppendEntries depend on it,
         just as real implementations depend on TCP ordering). *)
      let now = Engine.now t.engine in
      let fifo_at =
        let at = now +. base_delay in
        if at >= l.fifo.at then at else l.fifo.at
      in
      let delay = fifo_at -. now in
      let reorder_extra = reorder_extra t 0.0 specs in
      if reorder_extra > 0.0 then
        (* The reorder fault ejects this message from the stream: it is
           delayed past its slot and deliberately does NOT hold the fifo
           clock back, so later messages overtake it. *)
        deliver_after l ~delay:(delay +. reorder_extra) msg
      else begin
        l.fifo.at <- fifo_at;
        deliver_after l ~delay msg
      end;
      (* matched here so that a healthy send does not box [delay] for a
         call that would return at once *)
      match specs with [] -> () | specs -> duplicate t l ~delay msg specs
    end
  end

let dropped t = t.dropped

let fault_dropped t = t.fault_dropped

let duplicated t = t.duplicated

let reordered t = t.reordered

let link_bytes t ~src ~dst =
  match find_link t ~src ~dst with Some l -> l.stats.bytes | None -> 0

(* Total bytes that crossed a region boundary, in either direction. *)
let cross_region_bytes t =
  Hashtbl.fold
    (fun (rs, rd) st acc -> if rs <> rd then acc + st.bytes else acc)
    t.region_stats 0

let total_bytes t = Hashtbl.fold (fun _ st acc -> acc + st.bytes) t.region_stats 0

let total_messages t = Hashtbl.fold (fun _ st acc -> acc + st.messages) t.region_stats 0

(* Per-directed-link (src, dst, messages, bytes) rows, sorted, for
   metric exports (Obs cannot be depended on from sim — the caller
   builds its registry from these).  Links idle since the last
   [reset_stats] have no row. *)
let link_stat_rows t =
  Hashtbl.fold
    (fun _ out acc ->
      Hashtbl.fold
        (fun _ l acc ->
          if l.stats.messages = 0 then acc
          else (l.src, l.dst, l.stats.messages, l.stats.bytes) :: acc)
        out acc)
    t.links []
  |> List.sort compare

let region_stat_rows t =
  Hashtbl.fold
    (fun (rs, rd) st acc -> if st.messages = 0 then acc else (rs, rd, st.messages, st.bytes) :: acc)
    t.region_stats []
  |> List.sort compare

(* Zero every counter in place: the link records, and with them the FIFO
   clocks and delay laws, live on. *)
let reset_stats t =
  let zero st =
    st.messages <- 0;
    st.bytes <- 0
  in
  Hashtbl.iter (fun _ out -> Hashtbl.iter (fun _ l -> zero l.stats) out) t.links;
  Hashtbl.iter (fun _ st -> zero st) t.region_stats;
  t.dropped <- 0;
  t.fault_dropped <- 0;
  t.duplicated <- 0;
  t.reordered <- 0
