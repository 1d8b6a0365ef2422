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

   Set-based checks are pure; the node supplies the vote/ack sets.  The
   commit point and lease select over a [layout]'s stamps, in place. *)

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

(* A data quorum laid out for selection, once per (config, mode, leader
   region).  Every member owns a slot; the counted voters come first, in
   groups — all voters, the leader region's, or one per region — each
   satisfied by a majority of itself, the quorum by [groups_needed]. *)
type layout = {
  slots : Types.node_id array;
  self : int; (* the leader's slot; -1 when it is not a member *)
  bounds : int array; (* group g spans slots [bounds.(g), bounds.(g + 1)) *)
  groups_needed : int;
  stamps : float array; (* per slot, written by the caller *)
  globals : float array; (* the send stamps' global partners *)
  scratch : float array; (* the grouped stamps, reordered by selection *)
  tops : float array; (* per group: the highest stamp a majority reaches *)
  lease : float array; (* [| local; global |] of the last lease point *)
}

let layout mode config ~self ~leader_region =
  let groups =
    List.filter (( <> ) [])
      (match mode with
      | Majority -> [ Types.voters config ]
      | Single_region_dynamic -> [ Types.voters_in_region config leader_region ]
      | Region_majorities ->
        List.map (Types.voters_in_region config) (Types.regions_with_voters config))
  in
  let grouped = List.concat groups in
  let rest = List.filter (fun m -> not (List.memq m grouped)) config.Types.members in
  let slots = Array.of_list (List.map (fun m -> m.Types.id) (grouped @ rest)) in
  let n = Array.length slots and ngroups = List.length groups in
  let bounds = Array.make (ngroups + 1) 0 in
  List.iteri (fun g m -> bounds.(g + 1) <- bounds.(g) + List.length m) groups;
  let rec find i = if i = n then -1 else if slots.(i) = self then i else find (i + 1) in
  {
    slots;
    self = find 0;
    bounds;
    groups_needed = (if mode = Region_majorities then majority_of ngroups else 1);
    stamps = Array.make n 0.0;
    globals = Array.make n 0.0;
    scratch = Array.make (List.length grouped) 0.0;
    tops = Array.make ngroups 0.0;
    lease = Array.make 2 0.0;
  }

let slots l = l.slots

let stamps l = l.stamps

let globals l = l.globals

let lease l = l.lease

(* The position of the [k]-th largest of [a.(lo .. hi - 1)]
   (1 <= k <= hi - lo) once quickselect has reordered the range into
   [lo, above) > pivot = [above, below) > [below, hi); equal stamps, the
   common case, settle in one pass.  A position: no float is boxed. *)
let rec select (a : float array) lo hi k =
  let pivot = a.((lo + hi) / 2) and above = ref lo and i = ref lo and below = ref hi in
  while !i < !below do
    let x = a.(!i) in
    if x > pivot then begin
      a.(!i) <- a.(!above);
      a.(!above) <- x;
      incr above;
      incr i
    end
    else if x < pivot then begin
      decr below;
      a.(!i) <- a.(!below);
      a.(!below) <- x
    end
    else incr i
  done;
  if k <= !above - lo then select a lo !above k
  else if k > !below - lo then select a !below hi (k - (!below - lo))
  else !above

(* The greatest v whose reachers form a data quorum, as a position in
   [l.tops] (-1: none).  A stamp covers everything before it, so a
   group's majority reaches v while v <= its majority-th largest stamp,
   and the quorum while v <= the [groups_needed]-th largest of those. *)
let threshold l =
  Array.blit l.stamps 0 l.scratch 0 (Array.length l.scratch);
  let groups = Array.length l.tops in
  for g = 0 to groups - 1 do
    let lo = l.bounds.(g) and hi = l.bounds.(g + 1) in
    l.tops.(g) <- l.scratch.(select l.scratch lo hi (majority_of (hi - lo)))
  done;
  if l.groups_needed > groups then -1 else select l.tops 0 groups l.groups_needed

let commit_point l ~self ~above ~upto =
  if l.self >= 0 then l.stamps.(l.self) <- float_of_int self;
  let i = threshold l in
  if i < 0 || l.tops.(i) <= float_of_int above then above
  else if l.tops.(i) >= float_of_int upto then max upto above
  else int_of_float l.tops.(i)

(* LeaseGuard: the leader (at [infinity]: it acks its own sends) and the
   members whose acked send reaches T form a data quorum.  When the
   leader alone is one, every send qualifies and the latest wins. *)
let lease_point l ~now ~now_global =
  if l.self >= 0 then l.stamps.(l.self) <- infinity;
  let i = threshold l in
  i >= 0
  && l.tops.(i) > neg_infinity
  &&
  let n = Array.length l.slots and t = ref l.tops.(i) in
  if !t = infinity then begin
    t := now;
    for s = 0 to n - 1 do
      if s <> l.self && l.stamps.(s) > !t then t := l.stamps.(s)
    done
  end;
  (* sends sharing the winning local stamp: the latest global one *)
  let twin = ref (if now = !t then now_global else neg_infinity) in
  for s = 0 to n - 1 do
    if s <> l.self && l.stamps.(s) = !t && l.globals.(s) > !twin then
      twin := l.globals.(s)
  done;
  l.lease.(0) <- !t;
  l.lease.(1) <- !twin;
  true

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
