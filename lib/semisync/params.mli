(** Fixed tunables of the prior setup: semi-sync shipping plus the
    external control plane whose heavy-tailed detection/remediation
    latency is what MyRaft's Table 2 beats by 24x.  All times in µs. *)

val ship_interval : float  (** periodic ship/retry cadence *)

val max_entries_per_ship : int

val poll_interval : float  (** orchestrator health-check period *)

val confirmations : int  (** consecutive ping failures before failover *)

val ping_timeout : float

val lock_delay_lo : float

val lock_delay_hi : float

val position_query_delay : float  (** per-replica GTID position RPC *)

val remediation_mu : float  (** lognormal automation/queueing overhead *)

val remediation_sigma : float

val repoint_delay : float  (** CHANGE MASTER TO on one replica *)

val publish_delay : float

val catchup_poll : float

val promotion_step_delay : float

val promotion_overhead_mu : float

val promotion_overhead_sigma : float
