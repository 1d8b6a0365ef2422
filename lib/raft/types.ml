(* Raft ring membership types.

   The role mapping of Table 1: a MySQL follower is a voter with a
   storage engine; a learner is a non-voter with an engine (non-failover
   replica); a witness (logtailer) is a voter without an engine. *)

type node_id = string

type role = Leader | Follower | Candidate

let role_to_string = function
  | Leader -> "leader"
  | Follower -> "follower"
  | Candidate -> "candidate"

type member_kind = Mysql_server | Logtailer

type member = {
  id : node_id;
  region : string;
  voter : bool;
  kind : member_kind;
}

let is_learner m = (not m.voter) && m.kind = Mysql_server

type config = { members : member list }

let config_members c = c.members

let find_member c id = List.find_opt (fun m -> m.id = id) c.members

let is_member c id = Option.is_some (find_member c id)

let voters c = List.filter (fun m -> m.voter) c.members

let voter_ids c = List.map (fun m -> m.id) (voters c)

let learners c = List.filter is_learner c.members

let voters_in_region c region = List.filter (fun m -> m.region = region) (voters c)

let regions_with_voters c =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun m ->
      if m.voter && not (Hashtbl.mem seen m.region) then begin
        Hashtbl.replace seen m.region ();
        Some m.region
      end
      else None)
    c.members

let member_ids c = List.map (fun m -> m.id) c.members

(* ----- logless dynamic reconfiguration ----- *)

(* Configs live in per-node state, not the oplog (Schultz et al.,
   arXiv 2102.11960): every config carries an identity ordered
   lexicographically by (config_term, config_version).  A leader bumps
   the version on every membership change and rewrites the term to its
   own on election, so an uncommitted config installed by a deposed
   leader always loses to the new leader's rewrite. *)
type cfg_id = { cfg_version : int; cfg_term : int }

let cfg_id_zero = { cfg_version = 0; cfg_term = 0 }

(* Term first, then version; no tuple is built, since the leader
   compares identities on every send and every ack. *)
let cfg_id_compare a b =
  match Int.compare a.cfg_term b.cfg_term with
  | 0 -> Int.compare a.cfg_version b.cfg_version
  | c -> c

let cfg_id_newer a b = cfg_id_compare a b > 0

let cfg_id_at_least a b = cfg_id_compare a b >= 0

let cfg_id_to_string c = Printf.sprintf "v%d@t%d" c.cfg_version c.cfg_term

(* Set equality on full member records: two configs with the same
   membership (ids, regions, voter flags, kinds) are interchangeable for
   callback purposes even when their identities differ (a term rewrite
   changes the id, not the ring). *)
let same_members a b =
  (* A config compared with itself, or listing the same members in the
     same order, needs no sort: installs mostly compare such pairs. *)
  a == b
  || a.members = b.members
  ||
  let key m = (m.id, m.region, m.voter, m.kind) in
  let sort c = List.sort compare (List.map key c.members) in
  sort a = sort b

(* Necessary condition for quorum overlap between consecutive configs:
   they share at least one voter.  Single-step changes (the only kind
   the planner emits) always satisfy it. *)
let voters_overlap a b =
  let va = voter_ids a and vb = voter_ids b in
  List.exists (fun v -> List.mem v vb) va

(* Size of the voter-set symmetric difference — how many voters a change
   adds plus removes.  Safe single steps keep it at most 1. *)
let voter_delta a b =
  let va = voter_ids a and vb = voter_ids b in
  List.length (List.filter (fun v -> not (List.mem v vb)) va)
  + List.length (List.filter (fun v -> not (List.mem v va)) vb)

(* Wire size of a gossiped config for bandwidth accounting: per member,
   the id and region strings plus flags. *)
let config_wire_size c =
  List.fold_left
    (fun acc m -> acc + String.length m.id + String.length m.region + 4)
    8 c.members

(* A member's description is its id, "@", its region and these two
   tags: "id@region(kind,voter)". *)
let kind_tag m = match m.kind with Mysql_server -> "(mysql" | Logtailer -> "(logtailer"

let voter_tag m = if m.voter then ",voter)" else ",non-voter)"

let describe_member m = String.concat "" [ m.id; "@"; m.region; kind_tag m; voter_tag m ]

(* The members' descriptions, ", "-separated, written straight into one
   string of the exact length: installs describe the whole ring each. *)
let describe_config c =
  let length m =
    String.length m.id + 1 + String.length m.region + String.length (kind_tag m)
    + String.length (voter_tag m)
  in
  let n = List.fold_left (fun n m -> n + 2 + length m) 0 c.members in
  let b = Bytes.create (max 0 (n - 2)) in
  let put pos s =
    Bytes.blit_string s 0 b pos (String.length s);
    pos + String.length s
  in
  let describe pos m =
    let pos = if pos > 0 then put pos ", " else pos in
    put (put (put (put (put pos m.id) "@") m.region) (kind_tag m)) (voter_tag m)
  in
  ignore (List.fold_left describe 0 c.members);
  Bytes.unsafe_to_string b
