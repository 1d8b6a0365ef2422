(** Tracing for the simulator: timestamped with virtual time, collected
    in memory for assertions, optionally echoed for narrated examples. *)

type entry = { time : float; tag : string; message : string }

type t

val create : ?echo:bool -> Engine.t -> t

(** [record t ~tag fmt ...] formats and stores one entry. *)
val record : t -> tag:string -> ('a, Format.formatter, unit, unit) format4 -> 'a

(** Entries oldest-first. *)
val entries : t -> entry list

val entries_with_tag : t -> string -> entry list

val clear : t -> unit
