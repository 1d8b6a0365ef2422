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

(** Has the entry been acknowledged by enough voters, given the leader's
    region? *)
val data_quorum_satisfied :
  mode -> Types.config -> leader_region:string -> acks:Types.node_id list -> bool

(** [threshold mode config ~leader_region ~stamp ~geq ~above ~upto]: the
    greatest value in [(above, upto]] such that the voters whose
    [stamp id] reaches it ([geq]) satisfy the data quorum, or [above]
    when none does.  A stamp is how far a member has acknowledged along
    an ordered axis (a log index, a send time) and covers everything
    before it, so the quorum predicate is monotone and only the voters'
    stamps (clamped to [upto]) are candidates; reachers are counted in
    place, without building lists. *)
val threshold :
  mode ->
  Types.config ->
  leader_region:string ->
  stamp:(Types.node_id -> 'a) ->
  geq:('a -> 'a -> bool) ->
  above:'a ->
  upto:'a ->
  'a

(** [commit_point mode config ~leader_region ~ack ~above ~upto]: the
    highest index in [(above, upto]] acknowledged by a data quorum, or
    [above] when none is; [ack id] is the highest index member [id] has
    acknowledged (0 for none).  The {!threshold} search over log
    indexes. *)
val commit_point :
  mode ->
  Types.config ->
  leader_region:string ->
  ack:(Types.node_id -> int) ->
  above:int ->
  upto:int ->
  int

(** [lease_point mode config ~leader_region ~self ~now ~now_global ~sends
    ~local ~global]: the leader lease threshold (LeaseGuard) as a
    [(local, global)] stamp pair of one send, or [None].  The local stamp
    is the latest T among the leader's own send at [now] and the peers'
    acked sends ([local p], [neg_infinity] for none) such that [self]
    plus every peer whose acked send is stamped >= T form a data quorum
    — the {!threshold} search over the voters' send stamps.  The global
    stamp is the largest among the sends stamped T ([now_global] for the
    leader's own). *)
val lease_point :
  mode ->
  Types.config ->
  leader_region:string ->
  self:Types.node_id ->
  now:float ->
  now_global:float ->
  sends:(Types.node_id, 'p) Hashtbl.t ->
  local:('p -> float) ->
  global:('p -> float) ->
  (float * float) option

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
