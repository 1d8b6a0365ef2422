(** Raft ring membership types — the role mapping of Table 1: a MySQL
    follower is a voter with a storage engine, a learner is a non-voter
    with an engine, a witness (logtailer) is a voter without one. *)

type node_id = string

type role = Leader | Follower | Candidate

val role_to_string : role -> string

type member_kind = Mysql_server | Logtailer

type member = {
  id : node_id;
  region : string;
  voter : bool;
  kind : member_kind;
}

type config = { members : member list }

val config_members : config -> member list

val find_member : config -> node_id -> member option

val is_member : config -> node_id -> bool

val voters : config -> member list

val voter_ids : config -> node_id list

val learners : config -> member list

val voters_in_region : config -> string -> member list

(** Regions hosting at least one voter, in member order. *)
val regions_with_voters : config -> string list

val member_ids : config -> node_id list

(** {2 Logless dynamic reconfiguration}

    Configs live in per-node state, not the oplog (Schultz et al.,
    arXiv 2102.11960), identified and ordered lexicographically by
    [(cfg_term, cfg_version)]: a leader bumps the version on every
    membership change and rewrites the term to its own on election. *)

type cfg_id = { cfg_version : int; cfg_term : int }

val cfg_id_zero : cfg_id

(** Lexicographic on (term, version). *)
val cfg_id_compare : cfg_id -> cfg_id -> int

(** [cfg_id_newer a b]: [a] is strictly newer than [b]. *)
val cfg_id_newer : cfg_id -> cfg_id -> bool

val cfg_id_at_least : cfg_id -> cfg_id -> bool

val cfg_id_to_string : cfg_id -> string

(** Same membership (ids, regions, voter flags, kinds), identity aside. *)
val same_members : config -> config -> bool

(** The two configs share at least one voter — the necessary condition
    for quorum overlap between consecutive configs. *)
val voters_overlap : config -> config -> bool

(** Size of the voter-set symmetric difference; safe single steps keep
    it at most 1. *)
val voter_delta : config -> config -> int

(** Wire size of a gossiped config (bandwidth accounting). *)
val config_wire_size : config -> int

val describe_member : member -> string

val describe_config : config -> string
