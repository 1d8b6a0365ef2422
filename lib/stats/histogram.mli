(** Latency histogram with exact percentiles and ASCII log-bucketed
    rendering (the Figure 5 panels). *)

type t

val create : unit -> t

val record : t -> float -> unit

(** [record_elapsed t now starts i] records [now -. starts.(i)] without
    boxing the sample. *)
val record_elapsed : t -> float -> Float.Array.t -> int -> unit

(** [record_int t n] records [float_of_int n] without boxing it. *)
val record_int : t -> int -> unit

val count : t -> int

val is_empty : t -> bool

(** Nearest-rank percentile; [p] in [0, 100].  Raises on empty. *)
val percentile : t -> float -> float

val min_value : t -> float

val max_value : t -> float

val mean : t -> float

(** Sample standard deviation (0 for fewer than 2 samples). *)
val stddev : t -> float

val merge : t -> t -> t

val iter : t -> (float -> unit) -> unit

(** [n] log-spaced buckets between min and max as (lo, hi, count) rows. *)
val buckets : t -> n:int -> (float * float * int) list

(** ASCII histogram, one row per bucket, bounds labelled in µs. *)
val render : ?buckets_n:int -> ?width:int -> t -> string

(** One-line "n/avg/p50/p95/p99/max" summary. *)
val summary_line : label:string -> t -> string
