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

(* Is [m] a voter of [region] ([""]: of any region)? *)
let voter_in m region = m.Types.voter && (region = "" || String.equal m.Types.region region)

(* Do the voters of [region] whose stamp reaches [n] form a majority of
   them?  Counts in place over [members], building no ack list. *)
let rec majority_reached ~stamp ~geq ~region n total got = function
  | [] -> got >= majority_of total
  | m :: rest ->
    if voter_in m region then
      majority_reached ~stamp ~geq ~region n (total + 1)
        (if geq (stamp m.Types.id) n then got + 1 else got)
        rest
    else majority_reached ~stamp ~geq ~region n total got rest

(* Does a voter of [m]'s region precede [m] in [members]?  Lets regions
   be counted once each without building the region list. *)
let rec region_seen_before m = function
  | [] -> false
  | m' :: rest ->
    m' != m
    && ((m'.Types.voter && String.equal m'.Types.region m.Types.region)
       || region_seen_before m rest)

(* Region majorities: do the voters reaching [n] form a majority in a
   majority of the regions that have voters? *)
let rec region_majorities ~stamp ~geq ~members n regions got = function
  | [] -> got >= majority_of regions
  | m :: rest ->
    if m.Types.voter && not (region_seen_before m members) then
      let ok = majority_reached ~stamp ~geq ~region:m.Types.region n 0 0 members in
      region_majorities ~stamp ~geq ~members n (regions + 1)
        (if ok then got + 1 else got)
        rest
    else region_majorities ~stamp ~geq ~members n regions got rest

(* The data quorum at [n]: a majority of [region]'s voters ([""]: of all
   voters), or with [per_region] a majority of region majorities. *)
let quorum_at ~members ~region ~per_region ~stamp ~geq n =
  if per_region then region_majorities ~stamp ~geq ~members n 0 0 members
  else majority_reached ~stamp ~geq ~region n 0 0 members

(* Scan the candidates — the stamps of [region]'s voters, clamped to
   [upto] — between the highest known-good [best] and the lowest
   known-bad [bad] ([has_bad] false: none yet). *)
let rec scan ~members ~region ~per_region ~stamp ~geq ~upto best bad has_bad = function
  | [] -> best
  | m :: rest ->
    (* written out, not partially applied: a call allocates nothing *)
    if not (voter_in m region) then
      scan ~members ~region ~per_region ~stamp ~geq ~upto best bad has_bad rest
    else begin
      let s = stamp m.Types.id in
      let n = if geq s upto then upto else s in
      if geq best n || (has_bad && geq n bad) then
        scan ~members ~region ~per_region ~stamp ~geq ~upto best bad has_bad rest
      else if quorum_at ~members ~region ~per_region ~stamp ~geq n then
        scan ~members ~region ~per_region ~stamp ~geq ~upto n bad has_bad rest
      else scan ~members ~region ~per_region ~stamp ~geq ~upto best n true rest
    end

(* The greatest stamp value in (above, upto] whose reachers form a data
   quorum; [above] when none does.

   A member's stamp is how far it has acknowledged along an ordered
   axis — a log index, or a send time — and acknowledging a point
   acknowledges everything before it.  So the reaching set only shrinks
   as the value grows and the quorum predicate is monotone: true up to
   the answer, false past it.  The reaching set is constant between
   consecutive stamps, so the answer is one of the voters' stamps
   (clamped to [upto]): only those candidates are evaluated, each between
   the highest known-good and the lowest known-bad value, and reachers
   are counted in place. *)
let threshold mode config ~leader_region ~stamp ~geq ~above ~upto =
  let region =
    match mode with Single_region_dynamic -> leader_region | Majority | Region_majorities -> ""
  in
  let per_region =
    match mode with Region_majorities -> true | Majority | Single_region_dynamic -> false
  in
  let members = config.Types.members in
  scan ~members ~region ~per_region ~stamp ~geq ~upto above above false members

let int_geq (a : int) b = a >= b

let float_geq (a : float) b = a >= b

let commit_point mode config ~leader_region ~ack ~above ~upto =
  threshold mode config ~leader_region ~stamp:ack ~geq:int_geq ~above ~upto

(* The leader lease threshold (LeaseGuard): the latest local send stamp
   T such that the leader plus every peer whose acked send is stamped
   >= T form a data quorum, paired with the global stamp of that send.
   Candidates are the leader's own send at [now] and every peer's acked
   send ([local p] is a peer's acked-send stamp, [neg_infinity] for
   none).  Only voters' stamps decide the quorum, so one [threshold]
   search over them finds T, with the leader stamped at [infinity]: it
   always acks its own sends.  Should the leader alone be a data quorum,
   every candidate qualifies and the latest wins.  Sends sharing the
   winning local stamp may differ in global stamp; the largest is
   taken. *)
let lease_point mode config ~leader_region ~self ~now ~now_global ~sends ~local ~global =
  let stamp id =
    if String.equal id self then infinity
    else match Hashtbl.find sends id with p -> local p | exception Not_found -> neg_infinity
  in
  let t =
    threshold mode config ~leader_region ~stamp ~geq:float_geq ~above:neg_infinity
      ~upto:infinity
  in
  if t = neg_infinity then None
  else begin
    let t =
      if t < infinity then t
      else
        Hashtbl.fold (fun _ p latest -> if local p > latest then local p else latest) sends now
    in
    let twin =
      Hashtbl.fold
        (fun _ p g -> if local p = t && global p > g then global p else g)
        sends
        (if now = t then now_global else neg_infinity)
    in
    Some (t, twin)
  end

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
