(* Quorum evaluation, including FlexiRaft's flexible commit quorums (§4.1).

   Three modes:
   - [Majority]: classic Raft — majority of all voters for both data
     commit and leader election.
   - [Single_region_dynamic]: FlexiRaft's production mode.  The data
     commit quorum is a majority of the voters in the *leader's* region
     (leader self-vote + one of the two in-region logtailers, in the
     paper's topology).  The leader-election quorum must intersect every
     possible data quorum, which FlexiRaft achieves by requiring a
     majority in the candidate's own region *and* in the region of the
     last known leader; when no leader is known the candidate falls back
     to the pessimistic requirement of a majority in every region that
     hosts voters.
   - [Region_majorities]: multi-region commit quorum — a majority of
     regions, each satisfied by an in-region majority (grid-style);
     offered for applications choosing consistency over latency.

   All functions are pure; the node supplies the vote/ack sets. *)

type mode = Majority | Single_region_dynamic | Region_majorities

let mode_to_string = function
  | Majority -> "majority"
  | Single_region_dynamic -> "single-region-dynamic"
  | Region_majorities -> "region-majorities"

let majority_of n = (n / 2) + 1

(* Does [acks] contain a majority of [members]? *)
let majority_satisfied members acks =
  let n = List.length members in
  n > 0
  &&
  let got = List.length (List.filter (fun m -> List.mem m.Types.id acks) members) in
  got >= majority_of n

let region_majority config ~region acks =
  majority_satisfied (Types.voters_in_region config region) acks

let all_region_majorities config acks =
  List.for_all
    (fun region -> region_majority config ~region acks)
    (Types.regions_with_voters config)

let majority_of_region_majorities config acks =
  let regions = Types.regions_with_voters config in
  let satisfied = List.filter (fun r -> region_majority config ~region:r acks) regions in
  List.length satisfied >= majority_of (List.length regions)

(* Data commit quorum: has the entry been acknowledged by enough voters,
   given the leader's region? *)
let data_quorum_satisfied mode config ~leader_region ~acks =
  match mode with
  | Majority -> majority_satisfied (Types.voters config) acks
  | Single_region_dynamic -> region_majority config ~region:leader_region acks
  | Region_majorities -> majority_of_region_majorities config acks

(* Do the voters in [region] ([None]: all voters) whose ack reaches [n]
   form a majority of them?  Counts in place, building no ack list. *)
let majority_acked members ~region ~ack n =
  let rec go total got = function
    | [] -> got >= majority_of total
    | m :: rest ->
      if
        m.Types.voter
        && match region with None -> true | Some r -> String.equal m.Types.region r
      then go (total + 1) (if ack m.Types.id >= n then got + 1 else got) rest
      else go total got rest
  in
  go 0 0 members

(* The highest index in (above, upto] that a data quorum has acked, where
   [ack id] is the highest index member [id] acknowledges (acks cover
   prefixes, 0 for none); [above] when no index qualifies.

   An acking set only shrinks as the index grows, so the quorum predicate
   is monotone: true up to the answer, false past it.  The acking set is
   constant between consecutive ack values, so the answer is one of them
   (clamped to [upto]): only those candidates are evaluated, each between
   the highest known-good and the lowest known-bad index. *)
let commit_point mode config ~leader_region ~ack ~above ~upto =
  let members = config.Types.members in
  let quorum_at =
    match mode with
    | Majority -> majority_acked members ~region:None ~ack
    | Single_region_dynamic -> majority_acked members ~region:(Some leader_region) ~ack
    | Region_majorities ->
      let regions = Types.regions_with_voters config in
      let needed = majority_of (List.length regions) in
      fun n ->
        List.fold_left
          (fun got r -> if majority_acked members ~region:(Some r) ~ack n then got + 1 else got)
          0 regions
        >= needed
  in
  let rec scan best bad = function
    | [] -> best
    | m :: rest ->
      if
        m.Types.voter
        && (mode <> Single_region_dynamic || String.equal m.Types.region leader_region)
      then begin
        let n = min (ack m.Types.id) upto in
        if n <= best || n >= bad then scan best bad rest
        else if quorum_at n then scan n bad rest
        else scan best n rest
      end
      else scan best bad rest
  in
  scan above max_int members

(* The regions in which a candidate must obtain an in-region majority for
   its election to intersect all possible past data quorums.  [None]
   means the rule is not region-based (plain majority).

   Two kinds of knowledge feed the intersection requirement:
   - [last_leader]: the authoritative last known leader (term, region),
     learned from AppendEntries or from having been that leader — its
     region may hold committed data;
   - [vote_constraint]: the FlexiRaft voting history — the highest-term
     candidate this node (or any responding voter) has *granted a vote*
     to.  Such a candidate MAY have won, so when its term is newer than
     the authoritative leader's, its region must be intersected too.

   With no authoritative leader at all the requirement stays pessimistic
   (a majority in every region): a mere granted vote can never *relax*
   the requirement, only extend it — this keeps concurrent bootstrap
   candidacies in different regions from both winning. *)
let required_election_regions mode config ~candidate_region ~last_leader ~vote_constraint =
  match mode with
  | Majority -> None
  | Region_majorities -> None
  | Single_region_dynamic ->
    let all = Types.regions_with_voters config in
    (match last_leader with
    | Some (leader_term, leader_region) when List.mem leader_region all ->
      let extra =
        match vote_constraint with
        | Some (vote_term, vote_region)
          when vote_term > leader_term && List.mem vote_region all ->
          [ vote_region ]
        | _ -> []
      in
      Some (List.sort_uniq compare (candidate_region :: leader_region :: extra))
    | Some _ | None -> Some all (* pessimistic: majority everywhere *))

let election_quorum_satisfied mode config ~candidate_region ~last_leader ~vote_constraint
    ~votes =
  match mode with
  | Majority -> majority_satisfied (Types.voters config) votes
  | Region_majorities -> majority_of_region_majorities config votes
  | Single_region_dynamic ->
    (match
       required_election_regions mode config ~candidate_region ~last_leader
         ~vote_constraint
     with
    | Some regions -> List.for_all (fun r -> region_majority config ~region:r votes) regions
    | None -> assert false)

(* Smallest number of voters whose acknowledgement can commit an entry:
   reported by the latency evaluation to explain the quorum each mode
   waits for. *)
let min_data_quorum_size mode config ~leader_region =
  match mode with
  | Majority -> majority_of (List.length (Types.voters config))
  | Single_region_dynamic ->
    majority_of (List.length (Types.voters_in_region config leader_region))
  | Region_majorities ->
    let regions = Types.regions_with_voters config in
    let sizes =
      List.map
        (fun r -> majority_of (List.length (Types.voters_in_region config r)))
        regions
    in
    let sorted = List.sort compare sizes in
    let needed = majority_of (List.length regions) in
    List.fold_left ( + ) 0 (List.filteri (fun i _ -> i < needed) sorted)
