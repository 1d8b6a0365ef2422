(** A semi-sync acker: the prior-setup role of the in-region logtailer
    (Table 1).  Tails the primary's binlog into a local log and
    acknowledges receipt; the primary's commit pipeline waits for the
    first acker acknowledgement. *)

type t

val create :
  engine:Sim.Engine.t ->
  id:string ->
  region:string ->
  send:(dst:string -> Wire.t -> unit) ->
  trace:Sim.Trace.t ->
  unit ->
  t

val id : t -> string

val log : t -> Binlog.Log_store.t

val is_crashed : t -> bool

val last_seq : t -> int

val repoint : t -> new_upstream:string -> unit

val handle_message : t -> src:string -> Wire.t -> unit

val crash : t -> unit

val restart : t -> unit
