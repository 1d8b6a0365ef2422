(** Physical placement of simulated nodes: which geographic region each
    node lives in.  Node identifiers are plain strings so traces read
    naturally. *)

type node_id = string

type region = string

type t

val create : unit -> t

(** Raises [Invalid_argument] on duplicate ids. *)
val add_node : t -> id:node_id -> region:region -> unit

val mem : t -> node_id -> bool

(** Raises [Invalid_argument] for unknown nodes. *)
val region_of : t -> node_id -> region

(** All nodes in insertion order. *)
val nodes : t -> node_id list

val nodes_in_region : t -> region -> node_id list

(** Regions in first-seen order. *)
val regions : t -> region list

val same_region : t -> node_id -> node_id -> bool
