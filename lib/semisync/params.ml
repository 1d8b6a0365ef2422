(* Fixed tunables of the prior setup: semi-sync shipping and, crucially,
   the *external* control plane whose detection and remediation latency
   is what MyRaft's evaluation (Table 2) beats by 24x.

   The orchestration model: a monitor pings the primary every
   [poll_interval] and declares it dead after [confirmations] consecutive
   failures; remediation then runs through automation whose duration is
   heavy-tailed (worker queues, retries, lock contention) — modelled as a
   lognormal on top of fixed per-step costs.  All times in µs. *)

let s = Sim.Engine.s

let ms = Sim.Engine.ms

(* replication *)
let ship_interval = 20.0 *. ms (* periodic ship/retry cadence *)

let max_entries_per_ship = 64

(* health monitoring *)
let poll_interval = 10.0 *. s

let confirmations = 3

let ping_timeout = 2.0 *. s

(* failover automation *)
let lock_delay_lo = 0.5 *. s (* distributed lock acquisition *)

let lock_delay_hi = 2.0 *. s

let position_query_delay = 100.0 *. ms (* per-replica GTID position RPC *)

(* lognormal of automation/queueing overhead: median 18 s, sigma 0.9,
   so mean ~27 s, p99 ~145 s *)
let remediation_mu = log (18.0 *. s)

let remediation_sigma = 0.9

let repoint_delay = 150.0 *. ms (* CHANGE MASTER TO on one replica *)

let publish_delay = 200.0 *. ms (* service discovery update *)

let catchup_poll = 100.0 *. ms

(* graceful promotion *)
let promotion_step_delay = 120.0 *. ms (* quiesce / switch role *)

(* lognormal with median 0.55 s, sigma 0.45: mean ~0.6 s, p99 ~1.6 s *)
let promotion_overhead_mu = log (0.55 *. s)

let promotion_overhead_sigma = 0.45
