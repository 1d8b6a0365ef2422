(* GTID sets: per-source sorted lists of disjoint inclusive intervals,
   exactly the structure behind MySQL's "uuid:1-5:7-9" notation.

   These sets are the replica-position metadata MyRaft preserves: the
   Previous-GTIDs header of every binlog file, gtid_executed on each
   server, and the adjustments made when a demoted leader's log suffix is
   truncated. *)

type interval = { lo : int; hi : int } (* inclusive, lo <= hi *)

module Source_map = Map.Make (String)

(* Intervals are sorted by lo DESCENDING, disjoint, non-adjacent.  The
   hot operation by far is a server appending the next gno at the tip of
   its gtid_executed set (every binlog append on every node), which with
   this ordering only touches the list head — no sort, no rebuild. *)
type t = interval list Source_map.t

let empty = Source_map.empty

let is_empty = Source_map.is_empty

(* Normalize an ASCENDING-sorted interval list: merge overlapping or
   adjacent runs.  Only used on the rare paths (union, remove) that
   rebuild a whole list. *)
let rec merge_sorted = function
  | a :: b :: rest ->
    if b.lo <= a.hi + 1 then merge_sorted ({ lo = a.lo; hi = max a.hi b.hi } :: rest)
    else a :: merge_sorted (b :: rest)
  | short -> short

(* Canonical descending form from an arbitrary interval bag. *)
let normalize_desc intervals =
  List.rev (merge_sorted (List.sort (fun a b -> compare a.lo b.lo) intervals))

(* Insert [lo, hi] into a descending list, merging where it overlaps or
   touches.  Appending at the tip — the steady-state case — is O(1). *)
let rec insert_desc ivs ~lo ~hi =
  match ivs with
  | [] -> [ { lo; hi } ]
  | a :: rest ->
    if lo > a.hi + 1 then { lo; hi } :: ivs (* strictly above the head *)
    else if hi < a.lo - 1 then a :: insert_desc rest ~lo ~hi (* strictly below *)
    else absorb_desc rest ~lo:(min lo a.lo) ~hi:(max hi a.hi)

(* The merged interval may keep swallowing lower neighbours. *)
and absorb_desc ivs ~lo ~hi =
  match ivs with
  | b :: rest when b.hi + 1 >= lo -> absorb_desc rest ~lo:(min lo b.lo) ~hi
  | _ -> { lo; hi } :: ivs

let add_interval t ~source ~lo ~hi =
  if lo > hi || lo < 1 then invalid_arg "Gtid_set.add_interval";
  let existing = Option.value (Source_map.find_opt source t) ~default:[] in
  Source_map.add source (insert_desc existing ~lo ~hi) t

let add t gtid = add_interval t ~source:(Gtid.source gtid) ~lo:(Gtid.gno gtid) ~hi:(Gtid.gno gtid)

let remove t gtid =
  let source = Gtid.source gtid and g = Gtid.gno gtid in
  match Source_map.find_opt source t with
  | None -> t
  | Some intervals ->
    let split acc iv =
      if g < iv.lo || g > iv.hi then iv :: acc
      else begin
        let acc = if g > iv.lo then { lo = iv.lo; hi = g - 1 } :: acc else acc in
        if g < iv.hi then { lo = g + 1; hi = iv.hi } :: acc else acc
      end
    in
    let remaining = normalize_desc (List.fold_left split [] intervals) in
    if remaining = [] then Source_map.remove source t else Source_map.add source remaining t

(* Descending and disjoint: once [g] is above an interval it is above
   every later one too. *)
let rec mem_desc g = function
  | [] -> false
  | iv :: rest -> if g > iv.hi then false else g >= iv.lo || mem_desc g rest

(* No option and no closure: the read path asks this on every commit. *)
let contains t gtid =
  match Source_map.find (Gtid.source gtid) t with
  | intervals -> mem_desc (Gtid.gno gtid) intervals
  | exception Not_found -> false

let union a b =
  Source_map.union (fun _ ia ib -> Some (normalize_desc (ia @ ib))) a b

let cardinal t =
  Source_map.fold
    (fun _ intervals acc ->
      acc + List.fold_left (fun n iv -> n + iv.hi - iv.lo + 1) 0 intervals)
    t 0

let subset a b =
  Source_map.for_all
    (fun source intervals ->
      match Source_map.find_opt source b with
      | None -> false
      | Some super ->
        List.for_all
          (fun iv -> List.exists (fun s -> s.lo <= iv.lo && iv.hi <= s.hi) super)
          intervals)
    a

let equal a b = subset a b && subset b a

(* Largest gno present for a source, 0 if none: used to continue a gno
   sequence after promotion. *)
let max_gno t ~source =
  match Source_map.find_opt source t with
  | None -> 0
  | Some intervals -> List.fold_left (fun acc iv -> max acc iv.hi) 0 intervals

let fold_gtids t ~init f =
  Source_map.fold
    (fun source intervals acc ->
      List.fold_left
        (fun acc iv ->
          let acc = ref acc in
          for g = iv.lo to iv.hi do
            acc := f !acc (Gtid.make ~source ~gno:g)
          done;
          !acc)
        acc intervals)
    t init

let to_string t =
  if is_empty t then "<empty>"
  else
    Source_map.bindings t
    |> List.map (fun (source, intervals) ->
           let ivs =
             List.rev_map
               (fun iv ->
                 if iv.lo = iv.hi then string_of_int iv.lo
                 else Printf.sprintf "%d-%d" iv.lo iv.hi)
               intervals
           in
           source ^ ":" ^ String.concat ":" ivs)
    |> String.concat ","

let pp fmt t = Format.pp_print_string fmt (to_string t)

(* ----- owner-side accumulator ----- *)

module Acc = struct
  type set = t

  (* The set is [base] plus the open tip [lo, hi] of [source], not yet
     folded into [base]; [hi < lo] while no tip is open.  [source] is
     physically the source string of the tip's last GTID, the key the
     chain of [add]s would have left in the map. *)
  type t = {
    mutable base : set;
    mutable source : string;
    mutable lo : int;
    mutable hi : int;
  }

  let create () = { base = empty; source = ""; lo = 1; hi = 0 }

  let fold a =
    if a.hi >= a.lo then begin
      a.base <- add_interval a.base ~source:a.source ~lo:a.lo ~hi:a.hi;
      a.lo <- 1;
      a.hi <- 0
    end

  let get a =
    fold a;
    a.base

  let set a s =
    a.base <- s;
    a.lo <- 1;
    a.hi <- 0

  let add a gtid =
    let source = Gtid.source gtid and g = Gtid.gno gtid in
    if g = a.hi + 1 && a.hi >= a.lo && String.equal source a.source then begin
      a.hi <- g;
      if source != a.source then a.source <- source
    end
    else begin
      fold a;
      if Source_map.mem source a.base then begin
        a.source <- source;
        a.lo <- g;
        a.hi <- g
      end
      else (* a source's first GTID keeps the map's insertion order *)
        a.base <- add a.base gtid
    end

  let contains a gtid =
    let g = Gtid.gno gtid in
    (g >= a.lo && g <= a.hi && String.equal (Gtid.source gtid) a.source)
    || contains a.base gtid

  let remove a gtid =
    fold a;
    a.base <- remove a.base gtid

  let union a s =
    fold a;
    a.base <- union a.base s
end
