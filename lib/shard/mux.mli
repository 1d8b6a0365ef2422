(** The multiplexing transport of the multi-Raft deployment: one
    [Sim.Network] carrying packets, where a packet batches every
    group-tagged frame that accumulated towards the same (src, dst)
    physical link within one coalescing window.  Co-located groups thus
    share network messages, and one group's heartbeat carries liveness
    for all of them (the receive path fires a per-node liveness tap
    before demultiplexing). *)

type frame = { fr_group : int; fr_payload : Myraft.Wire.t }

type packet = frame list

val packet_size : frame list -> int

type t

(** [window] is the coalescing window: the first frame towards an idle
    (src, dst) pair departs after [window]; everything pushed until then
    rides the same packet. *)
val create :
  engine:Sim.Engine.t ->
  topology:Sim.Topology.t ->
  ?latency:Sim.Latency.t ->
  window:float ->
  unit ->
  t

(** The underlying packet network (fault injection, stats). *)
val network : t -> packet Sim.Network.t

val window : t -> float

(** Idempotently add a physical node and install its demux handler. *)
val add_node : t -> id:string -> region:string -> unit

(** Attach group [group]'s handler for frames delivered to [node]. *)
val register : t -> group:int -> string -> (src:string -> Myraft.Wire.t -> unit) -> unit

(** Install [node]'s liveness tap: fired once per delivered packet with
    the sending node, before demultiplexing — the hook that resets every
    co-located follower's failover clock off one beat. *)
val set_liveness_tap : t -> string -> (from:string -> unit) -> unit

(** Queue one frame; departs with the (src, dst) pair's next flush. *)
val send : t -> group:int -> src:string -> dst:string -> Myraft.Wire.t -> unit

(** Heartbeat-suppression carrier check: did any {e other} group push a
    frame onto (src, dst) within [within]?  The asking group's own beats
    don't count, so a 1-group deployment never suppresses. *)
val carried_recently :
  t -> group:int -> src:string -> dst:string -> within:float -> bool

(** {2 Counters} *)

val packets_sent : t -> int

val frames_sent : t -> int

val bytes_sent : t -> int

val frames_per_packet : t -> Stats.Histogram.t

(** shard.mux.* rows plus the packet network's net.* rows. *)
val metrics : t -> Obs.Metrics.t
