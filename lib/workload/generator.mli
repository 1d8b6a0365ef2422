(** Workload generators for the §6.1 experiments: MyShadow-style
    open-loop production traffic (Poisson arrivals, lognormal payload
    sizes) and the sysbench OLTP closed loop, both optionally mixing
    reads into the write stream. *)

type stats = {
  latencies : Stats.Histogram.t;
  throughput : Stats.Timeseries.t;
  mutable issued : int;
  mutable committed : int;
  mutable rejected : int;
  mutable timed_out : int;
  read_latencies : Stats.Histogram.t;  (** served reads only *)
  mutable reads_issued : int;
  mutable reads_ok : int;
  mutable reads_rejected : int;
  mutable reads_timed_out : int;
}

(** Key-skew model for generated keys: [Zipf theta] draws ranks from a
    Zipf(theta) pmf over [0, key_space) (rank 0 hottest) via a
    precomputed inverse CDF; [Hot_spot] sends [hot_fraction] of ops to
    the first [hot_keys] rows.  Skew concentrates the writeset and so
    stresses dependency-tracked parallel apply. *)
type key_dist =
  | Uniform
  | Zipf of float
  | Hot_spot of { hot_fraction : float; hot_keys : int }

type t

(** Register a client against a backend.  [client_latency] pins a fixed
    one-way latency to every ring member; omit it to use the region
    latency model.  [read_ratio] is the fraction of generated ops that
    are reads, issued at [read_level] against [read_target] (default:
    the primary).  A [Read_your_writes None] level automatically carries
    the session's last acknowledged GTID.  [tables] (default
    [["sbtest"]]) is the table set ops draw from uniformly — multi-table
    workloads exercise shard routing, which hashes (table, key). *)
val create :
  backend:Backend.t ->
  client_id:string ->
  region:string ->
  ?client_latency:float ->
  ?write_timeout:float ->
  ?key_space:int ->
  ?key_dist:key_dist ->
  ?tables:string list ->
  ?value_mu:float ->
  ?value_sigma:float ->
  ?bucket_width:float ->
  ?read_ratio:float ->
  ?read_level:Read.Level.t ->
  ?read_target:string ->
  ?read_timeout:float ->
  unit ->
  t

val stats : t -> stats

val stop : t -> unit

(** Issue one specific write (trace replay); [k] runs when it settles
    (commit/reject/timeout).  Its row payload is [value_size] bytes of
    ['d'], one string per size that every write of the size shares. *)
val issue_op : ?k:(bool -> unit) -> t -> table:string -> key:string -> value_size:int -> unit

(** Issue one write with generator-drawn key and payload size. *)
val issue : ?k:(bool -> unit) -> t -> unit

(** Draw a key index from the configured [key_dist] (exposed for
    distribution tests). *)
val draw_key_index : t -> int

(** Issue one read; [level]/[target] override the generator defaults.
    [k] also settles on timeout (as [Read_rejected]). *)
val issue_read :
  ?k:(Backend.read_outcome -> unit) ->
  ?level:Read.Level.t ->
  ?target:string ->
  t ->
  table:string ->
  key:string ->
  unit

(** Poisson arrivals at [rate_per_s]. *)
val start_open_loop : t -> rate_per_s:float -> unit

(** [threads] sysbench-style workers, each re-issuing on completion. *)
val start_closed_loop : t -> threads:int -> unit

val summary : t -> string
