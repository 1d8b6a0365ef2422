(** Quorum evaluation, including FlexiRaft's flexible commit quorums
    (§4.1).

    - [Majority]: classic Raft — majority of all voters for data commit
      and elections.
    - [Single_region_dynamic]: FlexiRaft's production mode — data commit
      needs a majority of the voters in the {e leader's} region; an
      election must intersect every possible past data quorum.
    - [Region_majorities]: a majority of regions, each by an in-region
      majority (grid-style), for consistency-over-latency applications.

    All functions are pure; the node supplies the vote/ack sets. *)

type mode = Majority | Single_region_dynamic | Region_majorities

val mode_to_string : mode -> string

val majority_of : int -> int

(** Does [acks] contain a majority of [members]? *)
val majority_satisfied : Types.member list -> Types.node_id list -> bool

val region_majority : Types.config -> region:string -> Types.node_id list -> bool

val all_region_majorities : Types.config -> Types.node_id list -> bool

val majority_of_region_majorities : Types.config -> Types.node_id list -> bool

(** Has the entry been acknowledged by enough voters, given the leader's
    region? *)
val data_quorum_satisfied :
  mode -> Types.config -> leader_region:string -> acks:Types.node_id list -> bool

(** [commit_point mode config ~leader_region ~ack ~above ~upto]: the
    highest index in [(above, upto]] acknowledged by a data quorum, or
    [above] when none is.  [ack id] is the highest index member [id] has
    acknowledged (acks cover prefixes; 0 for none).  Because the acking
    set shrinks as the index grows, only the members' ack values are
    candidates; acks are counted in place, without building lists. *)
val commit_point :
  mode ->
  Types.config ->
  leader_region:string ->
  ack:(Types.node_id -> int) ->
  above:int ->
  upto:int ->
  int

(** The regions in which a candidate must win an in-region majority;
    [None] means the rule is not region-based.

    [last_leader] is the authoritative last known leader (term, region);
    [vote_constraint] is the FlexiRaft voting history — the highest-term
    candidate granted a vote.  A grant can only extend the requirement,
    never relax it: with no authoritative leader the requirement stays
    pessimistic (every region). *)
val required_election_regions :
  mode ->
  Types.config ->
  candidate_region:string ->
  last_leader:(int * string) option ->
  vote_constraint:(int * string) option ->
  string list option

val election_quorum_satisfied :
  mode ->
  Types.config ->
  candidate_region:string ->
  last_leader:(int * string) option ->
  vote_constraint:(int * string) option ->
  votes:Types.node_id list ->
  bool

(** Smallest number of voters whose acknowledgement can commit an
    entry. *)
val min_data_quorum_size : mode -> Types.config -> leader_region:string -> int
