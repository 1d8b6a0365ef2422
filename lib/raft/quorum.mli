(** Quorum evaluation, including FlexiRaft's flexible commit quorums
    (§4.1).

    - [Majority]: classic Raft — majority of all voters for data commit
      and elections.
    - [Single_region_dynamic]: FlexiRaft's production mode — data commit
      needs a majority of the voters in the {e leader's} region; an
      election must intersect every possible past data quorum.
    - [Region_majorities]: a majority of regions, each by an in-region
      majority (grid-style), for consistency-over-latency applications.

    The set-based checks are pure; the node supplies the vote/ack sets.
    The commit point and the lease threshold run over a {!layout} whose
    stamps the node fills. *)

type mode = Majority | Single_region_dynamic | Region_majorities

val mode_to_string : mode -> string

(** Has the entry been acknowledged by enough voters, given the leader's
    region? *)
val data_quorum_satisfied :
  mode -> Types.config -> leader_region:string -> acks:Types.node_id list -> bool

(** A data quorum laid out for selection: one slot per member of a
    config, the voters the quorum counts grouped first (all voters, the
    leader region's, or one group per region), each group needing a
    majority of itself.  Built once per (config, mode, leader region);
    each evaluation then costs O(members) and allocates nothing. *)
type layout

(** [layout mode config ~self ~leader_region]: the layout of [config]'s
    data quorum under a leader [self] in [leader_region]. *)
val layout : mode -> Types.config -> self:Types.node_id -> leader_region:string -> layout

(** The member owning each slot. *)
val slots : layout -> Types.node_id array

(** Per-slot stamps: how far each member has acknowledged along an
    ordered axis (a log index, a send time); acknowledging a point
    covers everything before it.  The caller writes every slot except
    the leader's before each evaluation. *)
val stamps : layout -> float array

(** Per-slot global partner stamps of the send stamps, for
    {!lease_point}. *)
val globals : layout -> float array

(** [commit_point l ~self ~above ~upto]: the highest index in
    [(above, upto]] acknowledged by a data quorum, or [above] when none
    is, with {!stamps} holding each member's acknowledged index and
    [self] the leader's.  The quorum predicate is monotone in the index,
    so the answer is an order statistic of the stamps: each group's
    majority-th largest, then the needed-th largest of those. *)
val commit_point : layout -> self:int -> above:int -> upto:int -> int

(** [lease_point l ~now ~now_global]: the leader lease threshold
    (LeaseGuard), with {!stamps} holding each member's latest acked
    local send stamp ([neg_infinity] for none) and {!globals} its global
    partner.  On [true], {!lease} holds the [(local, global)] stamps of
    one send: the local stamp is the latest T among the leader's own
    send at [now] and the members' acked sends such that the leader plus
    every member whose acked send is stamped >= T form a data quorum;
    the global stamp is the largest among the sends stamped T
    ([now_global] for the leader's own).  [false]: no such send. *)
val lease_point : layout -> now:float -> now_global:float -> bool

(** [[| local; global |]] of the last successful {!lease_point}. *)
val lease : layout -> float array

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
