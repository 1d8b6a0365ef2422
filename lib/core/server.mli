(** A MyRaft MySQL server: storage engine + replication log + commit
    pipeline + applier, integrated with Raft through the mysql_raft_repl
    plugin surface (§3).

    Raft orchestrates the MySQL role through callbacks (promotion and
    demotion step sequences of §3.3) and reads/writes the binlog through
    the log abstraction.  Durable across crashes: engine contents, log
    files, Raft term/vote; everything else is rebuilt by {!restart}. *)

type role = Primary | Replica

val role_to_string : role -> string

type t

(** [metrics] receives all of this server's metric families — raft, pipeline,
    binlog, applier and server prefixes; a per-node registry is created
    when omitted.  [tracebuf] receives OpId-correlated
    flush / consensus-commit / engine-commit trace events. *)
val create :
  ?metrics:Obs.Metrics.t ->
  ?tracebuf:Obs.Tracebuf.t ->
  ?clock:Sim.Clock.t ->
  ?group:int ->
  engine:Sim.Engine.t ->
  id:string ->
  region:string ->
  replicaset:string ->
  send:(dst:string -> Wire.t -> unit) ->
  discovery:Service_discovery.t ->
  params:Params.t ->
  initial_config:Raft.Types.config ->
  trace:Sim.Trace.t ->
  unit ->
  t

val id : t -> string

(** This server's local clock — Raft timers, lease arithmetic and read
    staleness all run on it (fault-injection point for chaos; a pristine
    one is created when [create] is not handed one). *)
val clock : t -> Sim.Clock.t

val raft : t -> Raft.Node.t

val applier : t -> Applier.t

val role : t -> role

val writes_enabled : t -> bool

val is_crashed : t -> bool

val storage : t -> Storage.Engine.t

val log : t -> Binlog.Log_store.t

(** A transaction in the server's commit pipeline: a client write, or a
    relay-log entry the applier executes. *)
type txn

val pipeline : t -> txn Pipeline.t

(** Executed GTIDs: the binlog set on a primary, the engine set on a
    replica. *)
val gtid_executed : t -> Binlog.Gtid_set.t

(** {2 Client write path (§3.4)} *)

(** Prepare in the engine, assign a GTID, run the transaction through
    the three-stage pipeline; [reply] fires with the outcome. *)
val submit_write :
  t -> table:string -> ops:Binlog.Event.row_op list -> reply:(Wire.write_outcome -> unit) -> unit

(** {2 Read path} *)

(** Local engine read, served by any MySQL role (Table 1); replicas may
    be stale. *)
val read : t -> table:string -> key:string -> (string option, string) result

(** Serve a read at the requested consistency level through the
    {!Read.Service} tiering logic (ReadIndex / lease fast path for
    [Linearizable], GTID wait for [Read_your_writes], local age check
    for [Bounded_staleness], raw local read for [Eventual]).  The
    continuation fires exactly once — unless the server is crashed, in
    which case it never fires (the client times out). *)
val serve_read :
  t ->
  level:Read.Level.t ->
  table:string ->
  key:string ->
  (Read.Service.outcome -> unit) ->
  unit

(** WAIT_FOR_EXECUTED_GTID_SET: wait until [gtid] is engine-committed
    locally (read-your-writes on a replica); [k] receives whether it
    arrived before [timeout].  Event-driven: fires on the engine's
    commit notification, not on a poll tick. *)
val wait_for_executed_gtid : t -> Binlog.Gtid.t -> timeout:float -> k:(bool -> unit) -> unit

(** Highest log index the local engine has applied through (transaction
    entries engine-committed; noop/config entries pass freely).  Works
    on any role, including the primary. *)
val applied_through : t -> int

(** Run [k] once {!applied_through} reaches [index]: at once if it
    already has, else at the cursor move that passes it.  Waiters a move
    releases run newest first.  A crash drops them. *)
val wait_applied : t -> int -> (unit -> unit) -> unit

(** {2 Log maintenance (§A.1)} *)

(** FLUSH BINARY LOGS: replicate a rotate event through Raft, switch
    files once consensus committed.  Primary only. *)
val flush_binary_logs : t -> (unit, string) result

(** PURGE BINARY LOGS, gated on Raft's region watermarks, the
    cluster-wide peer floor (learners, in-flight windows, snapshot
    installs) and the local applied-through watermark; returns how many
    files were purged. *)
val purge_binary_logs : t -> int

(** Engine-checkpoint snapshot at the applied-through watermark (the
    source a wedged peer's InstallSnapshot rescue ships); [None] when no
    consistent boundary exists yet.  Also wired into the Raft node's
    [take_snapshot] callback. *)
val take_snapshot : t -> Raft.Snapshot.t option

(** {2 Lifecycle} *)

(** Process/host crash: volatile state is lost; the engine rolls back
    prepared transactions at {!restart} (§A.2). *)
val crash : t -> unit

val restart : t -> unit

(** Re-point the applier at the engine's recovery cursor after engine
    and log were seeded behind its back (backup restore into a fresh
    member).  No-op on a primary. *)
val reposition_applier : t -> unit

(** Network delivery entry point. *)
val handle_message : t -> src:string -> Wire.t -> unit

(** {2 Counters} *)

(** The registry all of this server's components record into. *)
val metrics : t -> Obs.Metrics.t

val describe : t -> string
