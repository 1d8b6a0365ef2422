(** Per-node metrics registry: named counters, gauges and latency
    histograms, cheap on the hot path (resolve a metric once, then each
    record is a field update), snapshottable and mergeable across nodes
    for cluster-wide views, text tables and JSON dumps. *)

type t

(** A live counter handle; resolve once with {!counter}, then {!incr} /
    {!add} are single field updates. *)
type counter

type gauge

type histogram

val create : ?node:string -> unit -> t

(** The node label stamped on snapshots ("" for anonymous registries). *)
val node : t -> string

(** {2 Counters} *)

(** Get-or-create by name. *)
val counter : t -> string -> counter

val incr : counter -> unit

val add : counter -> int -> unit

val counter_value : counter -> int

(** One-shot convenience for cold paths (hashtable probe per call). *)
val bump : ?by:int -> t -> string -> unit

(** {2 Gauges} *)

val gauge : t -> string -> gauge

(** [set_gauge_int g n] sets the gauge to [n] without boxing a float:
    hot paths that publish counts (queue depths, busy lanes, bytes) use
    it to allocate nothing per update. *)
val set_gauge_int : gauge -> int -> unit

val gauge_value : gauge -> float

val set : t -> string -> float -> unit

(** {2 Histograms} *)

(** Get-or-create; backed by {!Stats.Histogram} (exact percentiles). *)
val histogram : t -> string -> histogram

val record : histogram -> float -> unit

(** [record_elapsed h now starts i] records [now -. starts.(i)], and
    {!record_int} an int sample, with no float boxed on the way: a hot
    path that records one sample per item (stage latencies from a column
    of start times, group sizes) allocates nothing for it. *)
val record_elapsed : histogram -> float -> Float.Array.t -> int -> unit

val record_int : histogram -> int -> unit

val observe : t -> string -> float -> unit

(** {2 GC / allocator observability} *)

(** Sample [Gc.quick_stat] into [gc.*] gauges on [t]: minor/major/
    promoted words, minor/major collection counts, compactions, heap
    words.  Process-wide readings — sample into one dedicated registry
    per process (bench harness, CLI), never into per-node registries
    that are later merged (merged gauges sum and would overcount). *)
val sample_gc : t -> unit

(** {2 Snapshots} *)

(** An immutable, name-sorted view of a registry.  Merging sums counters
    and gauges and pools histogram samples. *)
type snapshot = {
  snap_node : string;
  snap_counters : (string * int) list;
  snap_gauges : (string * float) list;
  snap_histograms : (string * Stats.Histogram.t) list;
}

val snapshot : t -> snapshot

val merge : snapshot -> snapshot -> snapshot

val merge_all : ?node:string -> snapshot list -> snapshot

(** Counter value by name; 0 when absent. *)
val counter_of : snapshot -> string -> int

val gauge_of : snapshot -> string -> float option

val histogram_of : snapshot -> string -> Stats.Histogram.t option

(** Text table: counters, gauges, histogram summary lines. *)
val render : snapshot -> string

(** One JSON object: {v {"node":..,"counters":{..},"gauges":{..},
    "histograms":{..}} v}; histograms serialize as count/mean/p50/p95/
    p99/max. *)
val to_json : snapshot -> string
