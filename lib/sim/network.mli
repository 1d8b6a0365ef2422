(** Simulated message network, typed over the protocol's message type.

    Delivery incurs a one-way latency from the latency model; messages
    to crashed nodes or across partitions are silently dropped (Raft
    tolerates loss).  Per-link and per-region-pair byte counters support
    the proxying bandwidth evaluation (§4.2.2). *)

type 'msg t

(** Per-node / per-link message fault model.  Every delivery rolls
    independently against each spec that covers it (the directed link
    plus both endpoints); rolls come from an RNG split off the network's
    stream, so fault runs are fully determined by the engine seed and
    fault-free runs draw nothing. *)
type fault_spec = {
  drop : float;  (** P(message silently lost) *)
  duplicate : float;  (** P(a second copy is delivered) *)
  reorder : float;  (** P(an extra random delay shuffles this message) *)
  reorder_delay : float;  (** max extra delay for reordered/duplicate copies, µs *)
  extra_latency : float;  (** deterministic added latency — a transient spike, µs *)
}

(** All probabilities zero. *)
val no_faults : fault_spec

val create : Engine.t -> Topology.t -> ?latency:Latency.t -> unit -> 'msg t

val topology : 'msg t -> Topology.t

(** Install the receive handler for a node. *)
val register : 'msg t -> Topology.node_id -> (src:Topology.node_id -> 'msg -> unit) -> unit

(** Crashed nodes neither send nor receive. *)
val set_down : 'msg t -> Topology.node_id -> unit

val set_up : 'msg t -> Topology.node_id -> unit

val is_up : 'msg t -> Topology.node_id -> bool

(** Region-pair partitions and single-node isolation. *)
val cut_regions : 'msg t -> Topology.region -> Topology.region -> unit

val heal_regions : 'msg t -> Topology.region -> Topology.region -> unit

val isolate_node : 'msg t -> Topology.node_id -> unit

val heal_node : 'msg t -> Topology.node_id -> unit

(** Install/clear the fault spec covering every message a node sends or
    receives.  Setting {!no_faults} clears. *)
val set_node_faults : 'msg t -> Topology.node_id -> fault_spec -> unit

val clear_node_faults : 'msg t -> Topology.node_id -> unit

(** The spec currently installed for a node ({!no_faults} when none). *)
val node_faults : 'msg t -> Topology.node_id -> fault_spec

(** Install/clear a fault spec on one directed link. *)
val set_link_faults :
  'msg t -> src:Topology.node_id -> dst:Topology.node_id -> fault_spec -> unit

val clear_link_faults : 'msg t -> src:Topology.node_id -> dst:Topology.node_id -> unit

val faulted_nodes : 'msg t -> Topology.node_id list

(** Clears partitions, isolations AND all installed fault specs. *)
val heal_all : 'msg t -> unit

(** Fix the one-way latency between two nodes (both directions),
    overriding the region model. *)
val set_link_latency : 'msg t -> a:Topology.node_id -> b:Topology.node_id -> latency:float -> unit

(** [send t ~src ~dst ~size msg] accounts [size] bytes and schedules
    delivery; dropped silently when partitioned or either end is down. *)
val send : 'msg t -> src:Topology.node_id -> dst:Topology.node_id -> size:int -> 'msg -> unit

(** Messages dropped so far (down nodes, partitions and fault-model
    losses all feed this counter). *)
val dropped : 'msg t -> int

(** The subset of {!dropped} lost by the probabilistic fault model. *)
val fault_dropped : 'msg t -> int

(** Extra copies delivered by the duplication fault. *)
val duplicated : 'msg t -> int

(** Messages that received an extra reordering delay. *)
val reordered : 'msg t -> int

val link_bytes : 'msg t -> src:Topology.node_id -> dst:Topology.node_id -> int

(** Total bytes that crossed any region boundary. *)
val cross_region_bytes : 'msg t -> int

val total_bytes : 'msg t -> int

val total_messages : 'msg t -> int

(** Sorted (src, dst, messages, bytes) rows per directed link — the raw
    material for metric exports. *)
val link_stat_rows : 'msg t -> (Topology.node_id * Topology.node_id * int * int) list

(** Sorted (src_region, dst_region, messages, bytes) rows. *)
val region_stat_rows : 'msg t -> (Topology.region * Topology.region * int * int) list

val reset_stats : 'msg t -> unit
