(** Fault schedule: the declarative half of the nemesis — a weighted mix
    of fault kinds plus the knobs each kind reads.  The nemesis draws
    from the mix each step, bounded by [max_concurrent] outstanding
    faults and a [min_up] floor, and auto-heals after a random delay. *)

type fault_kind =
  | Crash_restart  (** crash a random node; restart at heal *)
  | Leader_crash  (** crash the current Raft leader; restart at heal *)
  | Graceful_transfer  (** ask the leader to transfer to a random peer *)
  | Partition_regions  (** cut a random region pair; reconnect at heal *)
  | Isolate_node  (** disconnect one node; reconnect at heal *)
  | Msg_drop  (** probabilistic loss on all of a node's traffic *)
  | Msg_duplicate  (** probabilistic duplication *)
  | Msg_reorder  (** probabilistic extra delivery delay *)
  | Latency_spike  (** deterministic added latency *)
  | Torn_tail  (** buffer fsyncs, crash, lose the unsynced tail *)
  | Fsync_stall  (** buffer fsyncs; flush at heal *)
  | Clock_drift  (** skew the leader's clock rate beyond the lease margin *)
  | Clock_step  (** step the leader's clock by a fixed skew *)
  | Disk_corrupt  (** flip bytes in a stored log entry, then crash *)
  | Asym_partition  (** drop follower->leader traffic only (ack starvation) *)
  | Election_storm  (** force simultaneous elections on several followers *)

val kind_to_string : fault_kind -> string

val all_kinds : fault_kind list

type t = {
  mix : (fault_kind * float) list;  (** weighted fault mix, drawn each step *)
  inject_p : float;  (** P(attempt an injection) per step *)
  max_concurrent : int;  (** outstanding (un-healed) faults at once *)
  min_up : int;  (** never crash below this many live nodes *)
  heal_after_lo : float;  (** auto-heal delay window, µs *)
  heal_after_hi : float;
  drop_p : float;  (** per-message probabilities for the Msg_* faults *)
  dup_p : float;
  reorder_p : float;
  reorder_delay : float;  (** max extra delay for reordered/dup copies, µs *)
  spike_latency : float;  (** added one-way latency for Latency_spike, µs *)
  torn_tail_k : int;  (** max unsynced entries lost by Torn_tail *)
  drift_rate : float;
      (** Clock_drift: fractional rate skew (0.05 = 5% fast/slow) *)
  step_skew : float;  (** Clock_step: magnitude of the one-shot jump, µs *)
  storm_nodes : int;
      (** Election_storm: followers forced to campaign at once *)
}

(** The classic mix only; chaos-smoke keeps its historical behavior. *)
val default : t

(** Every attack family plus the classic kinds, uniformly weighted, so
    attacks land on an already-perturbed cluster;
    [with_faults default (fault_names campaign)] replays the identical
    mix. *)
val campaign : t

(** Restrict the mix to the named kinds (the CLI's --faults list);
    [Error] on an unknown name or an empty list. *)
val with_faults : t -> string list -> (t, string) result

val fault_names : t -> string list

(** Weighted draw from the mix.  Entries with weight [<= 0.0] are never
    sampled; [None] iff no entry has positive weight. *)
val draw : t -> Sim.Rng.t -> fault_kind option

val heal_delay : t -> Sim.Rng.t -> float
