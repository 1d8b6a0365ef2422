(* Property-based suites over the core data structures:

   - Log_store: random append/rotate/truncate/purge sequences preserve
     the store invariants (contiguity, tail opid, GTID-set consistency,
     file-range partitioning).
   - Quorum: FlexiRaft intersection — any satisfied election quorum
     shares a voter with any satisfiable data quorum of the last
     leader's region; the threshold commit point equals the per-index
     scan it replaced. *)

(* ----- log store ----- *)

type op = Append | Rotate | Truncate of int | Purge

let op_gen =
  QCheck.Gen.(
    frequency
      [
        (12, return Append);
        (2, return Rotate);
        (2, map (fun n -> Truncate n) (1 -- 10));
        (1, return Purge);
      ])

let ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Append -> "A"
             | Rotate -> "R"
             | Truncate n -> Printf.sprintf "T%d" n
             | Purge -> "P")
           ops))
    QCheck.Gen.(list_size (5 -- 60) op_gen)

let txn_entry ~term ~index =
  Binlog.Entry.make
    ~opid:(Binlog.Opid.make ~term ~index)
    (Binlog.Entry.Transaction
       {
         gtid = Binlog.Gtid.make ~source:"src" ~gno:index;
         table = "t";
         ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ];
         xid = 0;
       })

(* Replay ops against the store and a naive model (list of live
   entries), then compare observable state. *)
let run_ops ops =
  let log = Binlog.Log_store.create () in
  let term = ref 1 in
  List.iter
    (fun op ->
      match op with
      | Append ->
        let index = Binlog.Log_store.last_index log + 1 in
        Binlog.Log_store.append log (txn_entry ~term:!term ~index)
      | Rotate ->
        Binlog.Log_store.rotate log;
        incr term (* new terms land in new files now and then *)
      | Truncate back ->
        let last = Binlog.Log_store.last_index log in
        let from_index = max (Binlog.Log_store.purged_below log) (last - back + 1) in
        if from_index >= 1 && from_index <= last then
          ignore (Binlog.Log_store.truncate_from log ~from_index)
      | Purge -> (
        (* purge everything except the final file, like the janitor *)
        match List.rev (Binlog.Log_store.file_names log) with
        | keep :: _ :: _ -> Binlog.Log_store.purge_to log ~file:keep
        | _ -> ()))
    ops;
  log

let prop_log_store_invariants =
  QCheck.Test.make ~name:"log store invariants under random ops" ~count:500 ops_arb
    (fun ops ->
      let log = run_ops ops in
      let last = Binlog.Log_store.last_index log in
      (* tail opid matches the tail entry when it exists *)
      (match Binlog.Log_store.entry_at log last with
      | Some e ->
        Binlog.Opid.equal (Binlog.Entry.opid e) (Binlog.Log_store.last_opid log)
      | None -> last = 0 || Binlog.Log_store.purged_below log > last)
      && (* indexes are self-consistent and contiguous where present *)
      List.for_all
        (fun i ->
          match Binlog.Log_store.entry_at log i with
          | Some e -> Binlog.Entry.index e = i
          | None -> i < Binlog.Log_store.purged_below log)
        (List.init last (fun i -> i + 1))
      && (* the GTID set matches exactly the live transaction entries *)
      (let live_gnos =
         List.filter_map
           (fun e -> Option.map Binlog.Gtid.gno (Binlog.Entry.gtid e))
           (Binlog.Log_store.all_entries log)
       in
       List.for_all
         (fun gno ->
           Binlog.Gtid_set.contains (Binlog.Log_store.gtid_set log)
             (Binlog.Gtid.make ~source:"src" ~gno))
         live_gnos)
      && (* file ranges partition the live index space in order *)
      (let ranges =
         List.filter (fun (_, first, _, _) -> first > 0) (Binlog.Log_store.file_ranges log)
       in
       let rec contiguous = function
         | (_, _, last_a, _) :: ((_, first_b, _, _) :: _ as rest) ->
           first_b = last_a + 1 && contiguous rest
         | _ -> true
       in
       contiguous ranges))

let prop_log_store_append_after_anything =
  QCheck.Test.make ~name:"append always works at tail+1" ~count:500 ops_arb (fun ops ->
      let log = run_ops ops in
      let index = Binlog.Log_store.last_index log + 1 in
      Binlog.Log_store.append log (txn_entry ~term:1000 ~index);
      Binlog.Opid.index (Binlog.Log_store.last_opid log) = index)

let prop_log_store_term_at_boundary =
  QCheck.Test.make ~name:"term_at answers at the purge boundary" ~count:500 ops_arb
    (fun ops ->
      let log = run_ops ops in
      let boundary = Binlog.Log_store.purge_boundary_opid log in
      Binlog.Opid.equal boundary Binlog.Opid.zero
      || Binlog.Log_store.term_at log (Binlog.Opid.index boundary)
         = Some (Binlog.Opid.term boundary))

(* ----- quorum intersection ----- *)

let config_gen =
  QCheck.Gen.(
    let* region_count = 2 -- 4 in
    let* sizes = list_repeat region_count (1 -- 4) in
    let members =
      List.concat
        (List.mapi
           (fun r size ->
             List.init size (fun i ->
                 {
                   Raft.Types.id = Printf.sprintf "n%d_%d" r i;
                   region = Printf.sprintf "r%d" r;
                   voter = true;
                   kind = Raft.Types.Mysql_server;
                 }))
           sizes)
    in
    return { Raft.Types.members })

let subset_gen cfg =
  QCheck.Gen.(
    let ids = Raft.Types.voter_ids cfg in
    let* bits = list_repeat (List.length ids) bool in
    return (List.filter_map (fun (id, b) -> if b then Some id else None)
              (List.combine ids bits)))

let intersection_case_gen =
  QCheck.Gen.(
    let* cfg = config_gen in
    let regions = Raft.Types.regions_with_voters cfg in
    let* leader_region = oneofl regions in
    let* candidate_region = oneofl regions in
    let* votes = subset_gen cfg in
    let* acks = subset_gen cfg in
    return (cfg, leader_region, candidate_region, votes, acks))

let intersection_arb =
  QCheck.make
    ~print:(fun (cfg, lr, cr, votes, acks) ->
      Printf.sprintf "cfg=[%s] leader_region=%s cand_region=%s votes=[%s] acks=[%s]"
        (Raft.Types.describe_config cfg) lr cr (String.concat "," votes)
        (String.concat "," acks))
    intersection_case_gen

(* The safety core of FlexiRaft: if a data quorum committed in the last
   leader's region, any successful election quorum (with that leader as
   the authoritative constraint) must share at least one voter with it. *)
let prop_flexiraft_quorum_intersection =
  QCheck.Test.make ~name:"flexiraft election/data quorums intersect" ~count:1000
    intersection_arb (fun (cfg, leader_region, candidate_region, votes, acks) ->
      let mode = Raft.Quorum.Single_region_dynamic in
      let election_ok =
        Raft.Quorum.election_quorum_satisfied mode cfg ~candidate_region
          ~last_leader:(Some (5, leader_region)) ~vote_constraint:None ~votes
      in
      let data_ok = Raft.Quorum.data_quorum_satisfied mode cfg ~leader_region ~acks in
      (not (election_ok && data_ok))
      || List.exists (fun v -> List.mem v acks) votes)

(* Majority mode: two satisfied quorums of any kind always intersect. *)
let prop_majority_quorums_intersect =
  QCheck.Test.make ~name:"majority quorums intersect" ~count:1000 intersection_arb
    (fun (cfg, leader_region, candidate_region, votes, acks) ->
      let mode = Raft.Quorum.Majority in
      let election_ok =
        Raft.Quorum.election_quorum_satisfied mode cfg ~candidate_region
          ~last_leader:(Some (5, leader_region)) ~vote_constraint:None ~votes
      in
      let data_ok = Raft.Quorum.data_quorum_satisfied mode cfg ~leader_region ~acks in
      (not (election_ok && data_ok)) || List.exists (fun v -> List.mem v acks) votes)

(* Pessimistic bootstrap: with no known leader, a satisfied election
   quorum intersects EVERY region's possible data quorum. *)
let prop_pessimistic_election_intersects_all_regions =
  QCheck.Test.make ~name:"pessimistic election intersects all regions" ~count:1000
    intersection_arb (fun (cfg, leader_region, candidate_region, votes, acks) ->
      let mode = Raft.Quorum.Single_region_dynamic in
      let election_ok =
        Raft.Quorum.election_quorum_satisfied mode cfg ~candidate_region
          ~last_leader:None ~vote_constraint:None ~votes
      in
      let data_ok = Raft.Quorum.data_quorum_satisfied mode cfg ~leader_region ~acks in
      (not (election_ok && data_ok)) || List.exists (fun v -> List.mem v acks) votes)

(* ----- commit point ----- *)

(* A leader and its acks over a random voter/learner/region layout: the
   leader's durable index may trail its last index, some peers are
   missing from its table, match indexes may run past the last index,
   and a stray non-member keeps acking. *)
let members_gen =
  QCheck.Gen.(
    let* layout = list_size (1 -- 4) (pair (0 -- 4) (0 -- 2)) in
    let member ~voter r kind i =
      {
        Raft.Types.id = Printf.sprintf "%s%d_%d" kind r i;
        region = Printf.sprintf "r%d" r;
        voter;
        kind = Raft.Types.Mysql_server;
      }
    in
    let members =
      List.concat
        (List.mapi
           (fun r (voters, learners) ->
             List.init voters (member ~voter:true r "v")
             @ List.init learners (member ~voter:false r "l"))
           layout)
    in
    return (if members = [] then [ member ~voter:true 0 "v" 0 ] else members))

let commit_case_gen =
  QCheck.Gen.(
    let* members = members_gen in
    let* mode =
      oneofl Raft.Quorum.[ Majority; Single_region_dynamic; Region_majorities ]
    in
    let* leader = oneofl members in
    let* upto = 0 -- 12 in
    let* self_durable = 0 -- upto in
    let* above = 0 -- upto in
    let* acks = list_repeat (List.length members) (opt (0 -- (upto + 2))) in
    let* stray = 0 -- (upto + 2) in
    let peers =
      ("stray", stray)
      :: List.filter_map
           (fun (m, a) ->
             match a with
             | Some a when m.Raft.Types.id <> leader.Raft.Types.id -> Some (m.Raft.Types.id, a)
             | _ -> None)
           (List.combine members acks)
    in
    return (mode, { Raft.Types.members }, leader, upto, self_durable, above, peers))

let commit_arb =
  QCheck.make
    ~print:(fun (mode, cfg, leader, upto, durable, above, peers) ->
      Printf.sprintf "%s cfg=[%s] leader=%s last=%d durable=%d commit=%d peers=[%s]"
        (Raft.Quorum.mode_to_string mode) (Raft.Types.describe_config cfg)
        leader.Raft.Types.id upto durable above
        (String.concat "," (List.map (fun (p, m) -> Printf.sprintf "%s:%d" p m) peers)))
    commit_case_gen

(* The per-index scan [Node.advance_commit] ran before the threshold
   search: walk up from [above + 1] rebuilding the ack list at every
   index until the data quorum fails. *)
let reference_commit_point mode cfg ~leader ~self_durable ~peers ~above ~upto =
  let rec scan n best =
    if n > upto then best
    else
      let acks =
        (if self_durable >= n then [ leader.Raft.Types.id ] else [])
        @ List.filter_map (fun (pid, m) -> if m >= n then Some pid else None) peers
      in
      if
        Raft.Quorum.data_quorum_satisfied mode cfg ~leader_region:leader.Raft.Types.region
          ~acks
      then scan (n + 1) n
      else best
  in
  scan (above + 1) above

(* The layout of [cfg] under [leader], each member's slot stamped with
   [stamp id] as the node stamps its peers' records.  A layout has no
   slot for a non-member: the stray's acks cannot count. *)
let layout_of mode cfg ~leader ~stamp =
  let l =
    Raft.Quorum.layout mode cfg ~self:leader.Raft.Types.id
      ~leader_region:leader.Raft.Types.region
  in
  Array.iteri
    (fun i id ->
      let local, global = stamp id in
      (Raft.Quorum.stamps l).(i) <- local;
      (Raft.Quorum.globals l).(i) <- global)
    (Raft.Quorum.slots l);
  l

let prop_commit_point_matches_scan =
  QCheck.Test.make ~name:"commit_point equals the per-index scan" ~count:2000 commit_arb
    (fun (mode, cfg, leader, upto, self_durable, above, peers) ->
      let stamp id =
        (float_of_int (Option.value (List.assoc_opt id peers) ~default:0), 0.0)
      in
      Raft.Quorum.commit_point (layout_of mode cfg ~leader ~stamp) ~self:self_durable
        ~above ~upto
      = reference_commit_point mode cfg ~leader ~self_durable ~peers ~above ~upto)

(* ----- lease threshold ----- *)

(* A leader and its peers' acked sends over a random layout, on a coarse
   time grid so stamps tie: a peer may be missing from the table, have no
   acked send yet ([neg_infinity]), share a local stamp with another send
   under a different global stamp, or carry a stamp past the leader's
   [now] (a clock that stepped back); a stray non-member keeps acking. *)
let lease_case_gen =
  QCheck.Gen.(
    let* members = members_gen in
    let* mode =
      oneofl Raft.Quorum.[ Majority; Single_region_dynamic; Region_majorities ]
    in
    let* leader = oneofl members in
    let send =
      let* local = frequency [ (1, return neg_infinity); (6, map float_of_int (0 -- 8)) ] in
      let* skew = 0 -- 2 in
      return (local, local +. float_of_int skew)
    in
    let* now = map float_of_int (0 -- 8) in
    let* now_skew = 0 -- 2 in
    let* sends = list_repeat (List.length members) (opt send) in
    let* stray = send in
    let peers =
      ("stray", stray)
      :: List.filter_map
           (fun (m, a) ->
             match a with
             | Some a when m.Raft.Types.id <> leader.Raft.Types.id -> Some (m.Raft.Types.id, a)
             | _ -> None)
           (List.combine members sends)
    in
    return (mode, { Raft.Types.members }, leader, (now, now +. float_of_int now_skew), peers))

let lease_arb =
  QCheck.make
    ~print:(fun (mode, cfg, leader, (now, now_global), peers) ->
      Printf.sprintf "%s cfg=[%s] leader=%s now=%g/%g sends=[%s]"
        (Raft.Quorum.mode_to_string mode) (Raft.Types.describe_config cfg)
        leader.Raft.Types.id now now_global
        (String.concat ","
           (List.map (fun (p, (l, g)) -> Printf.sprintf "%s:%g/%g" p l g) peers)))
    lease_case_gen

(* The list-building search [Node.extend_lease] ran before the threshold
   search: every (local, global) send pair is a candidate, tried latest
   first, each against a freshly built ack list. *)
let reference_lease_point mode cfg ~leader ~now ~now_global ~peers =
  let candidates =
    (now, now_global)
    :: List.filter_map
         (fun (_, (l, g)) -> if l > neg_infinity then Some (l, g) else None)
         peers
  in
  let quorum_at (threshold, _) =
    let acks =
      leader.Raft.Types.id
      :: List.filter_map
           (fun (pid, (l, _)) -> if l >= threshold then Some pid else None)
           peers
    in
    Raft.Quorum.data_quorum_satisfied mode cfg ~leader_region:leader.Raft.Types.region ~acks
  in
  List.find_opt quorum_at (List.sort_uniq (fun a b -> compare b a) candidates)

(* A peer missing from the table has no acked send.  A layout has no
   slot for the stray, so it is dropped on both sides: a leader's peer
   table holds exactly its config's other members. *)
let prop_lease_point_matches_list_search =
  QCheck.Test.make ~name:"lease_point equals the list-building search" ~count:3000 lease_arb
    (fun (mode, cfg, leader, (now, now_global), peers) ->
      let stamp id =
        Option.value (List.assoc_opt id peers) ~default:(neg_infinity, neg_infinity)
      in
      let l = layout_of mode cfg ~leader ~stamp in
      let members = List.filter (fun (pid, _) -> Raft.Types.is_member cfg pid) peers in
      (if Raft.Quorum.lease_point l ~now ~now_global then
         Some ((Raft.Quorum.lease l).(0), (Raft.Quorum.lease l).(1))
       else None)
      = reference_lease_point mode cfg ~leader ~now ~now_global ~peers:members)

(* ----- trace ring ----- *)

(* The record-per-slot ring [Obs.Tracebuf] was before it went columnar. *)
module Record_ring = struct
  type t = { buf : Obs.Tracebuf.event option array; cap : int; mutable total : int }

  let create capacity = { buf = Array.make capacity None; cap = capacity; total = 0 }

  let record t ~time ~node ~stage ~term ~index ~detail =
    t.buf.(t.total mod t.cap) <-
      Some
        {
          Obs.Tracebuf.ev_seq = t.total;
          ev_time = time;
          ev_node = node;
          ev_stage = stage;
          ev_term = term;
          ev_index = index;
          ev_detail = detail;
        };
    t.total <- t.total + 1

  let events t =
    let n = min t.total t.cap in
    let first = t.total - n in
    List.init n (fun i -> Option.get t.buf.((first + i) mod t.cap))

  let render ?(last = max_int) t =
    let evs = events t in
    let n = List.length evs in
    let evs = if n > last then List.filteri (fun i _ -> i >= n - last) evs else evs in
    String.concat "\n" (List.map Obs.Tracebuf.event_to_string evs)
end

let trace_arb =
  QCheck.make
    ~print:(fun (cap, evs) -> Printf.sprintf "capacity=%d events=%d" cap (List.length evs))
    QCheck.Gen.(
      (* small rings wrap often; large ones grow their columns first *)
      pair
        (oneof [ 1 -- 6; 60 -- 200 ])
        (list_size (0 -- 400)
           (tup5 (oneofl [ "p"; "r" ])
              (oneofl [ "flush"; "consensus-commit"; "engine-commit" ])
              (0 -- 2) (0 -- 3)
              (opt (oneofl [ ""; "x"; "gtid=s:1" ])))))

let prop_tracebuf_matches_record_ring =
  QCheck.Test.make ~name:"columnar Tracebuf equals the record ring" ~count:500 trace_arb
    (fun (cap, evs) ->
      let tb = Obs.Tracebuf.create ~capacity:cap () in
      let rr = Record_ring.create cap in
      List.iteri
        (fun i (node, stage, term, index, detail) ->
          let time = float_of_int i *. 1.5 in
          Obs.Tracebuf.record tb ~time ~node ~stage ~term ~index ?detail ();
          Record_ring.record rr ~time ~node ~stage ~term ~index
            ~detail:(Option.value detail ~default:""))
        evs;
      let all = Record_ring.events rr in
      Obs.Tracebuf.events tb = all
      && Obs.Tracebuf.total tb = rr.Record_ring.total
      && Obs.Tracebuf.length tb = List.length all
      && Obs.Tracebuf.dropped tb = max 0 (rr.Record_ring.total - cap)
      && List.for_all
           (fun (term, index) ->
             Obs.Tracebuf.for_opid tb ~term ~index
             = List.filter
                 (fun e -> e.Obs.Tracebuf.ev_term = term && e.Obs.Tracebuf.ev_index = index)
                 all)
           [ (0, 0); (1, 2); (2, 3) ]
      && List.for_all
           (fun stage ->
             Obs.Tracebuf.for_stage tb ~stage
             = List.filter (fun e -> e.Obs.Tracebuf.ev_stage = stage) all)
           [ "flush"; "engine-commit"; "absent" ]
      && List.for_all
           (fun last -> Obs.Tracebuf.render ~last tb = Record_ring.render ~last rr)
           [ 0; 1; 3; 100 ]
      && Obs.Tracebuf.render tb = Record_ring.render rr)

(* ----- log store: sliced reads ----- *)

(* [Log_store.read_slice] must return exactly what a copying read over
   [entry_at] returns: walk from [from_index], stop at the tail or a
   purged hole, stop before the entry that would blow the byte budget —
   except that the first entry always ships. *)

let slice_case_gen =
  QCheck.Gen.(
    let* n = 1 -- 60 in
    let* sizes = list_repeat n (0 -- 800) in
    let* purged = 0 -- (n / 2) in
    let* log_hole = 0 -- 3 in
    let* from_index = 1 -- n in
    let* max_count = 0 -- 20 in
    let* byte_budget = 50 -- 5_000 in
    return (sizes, purged, log_hole, from_index, max_count, byte_budget))

let slice_arb =
  QCheck.make
    ~print:(fun (sizes, purged, hole, fi, mc, bb) ->
      Printf.sprintf "n=%d purged=%d hole=%d from=%d count=%d budget=%dB"
        (List.length sizes) purged hole fi mc bb)
    slice_case_gen

let slice_entry ~index ~size =
  Binlog.Entry.make
    ~opid:(Binlog.Opid.make ~term:1 ~index)
    (Binlog.Entry.Transaction
       {
         gtid = Binlog.Gtid.make ~source:"src" ~gno:index;
         table = "t";
         ops = [ Binlog.Event.Insert { key = "k"; value = String.make size 'x' } ];
         xid = 0;
       })

(* The copying read: one [entry_at] per index, consed and reversed. *)
let reference_read log ~from_index ~max_count ~max_bytes =
  let rec collect idx n bytes acc =
    if n = 0 then List.rev acc
    else
      match Binlog.Log_store.entry_at log idx with
      | None -> List.rev acc
      | Some e ->
        let sz = Binlog.Entry.size e in
        if acc <> [] && bytes + sz > max_bytes then List.rev acc
        else collect (idx + 1) (n - 1) (bytes + sz) (e :: acc)
  in
  collect from_index max_count 0 []

(* Purge every file before a freshly opened one. *)
let purge_closed log =
  Binlog.Log_store.rotate log;
  let files = Binlog.Log_store.file_names log in
  Binlog.Log_store.purge_to log ~file:(List.nth files (List.length files - 1))

let prop_slice_equals_copying_read =
  QCheck.Test.make ~name:"sliced reads equal copying reads" ~count:500 slice_arb
    (fun (sizes, purged, log_hole, from_index, max_count, byte_budget) ->
      let n = List.length sizes in
      let entries =
        Array.of_list (List.mapi (fun i size -> slice_entry ~index:(i + 1) ~size) sizes)
      in
      (* the log is missing the last [log_hole] entries, so a read past
         the tail stops early; the first [purged] are purged, so a read
         from there stops at once *)
      let log = Binlog.Log_store.create () in
      for i = 1 to n - log_hole do
        Binlog.Log_store.append log entries.(i - 1);
        if i = purged then purge_closed log
      done;
      let expected =
        reference_read log ~from_index ~max_count ~max_bytes:byte_budget
      in
      let got =
        Binlog.Log_store.read_slice log ~max_bytes:byte_budget ~from_index ~max_count
      in
      let matches () =
        Array.length got = List.length expected
        && List.for_all2
             (fun e g -> e == g && Binlog.Entry.verify g)
             expected (Array.to_list got)
      in
      let same = matches () in
      (* the slice holds the entries, not log slots: truncating and
         purging the range under it leaves it intact *)
      let cut = max from_index (Binlog.Log_store.purged_below log) in
      ignore (Binlog.Log_store.truncate_from log ~from_index:cut);
      purge_closed log;
      same && matches ())

(* A slice handed to the transport must survive the log truncating and
   purging the range under it: the slice holds the entries, not slots. *)
let test_slice_survives_eviction () =
  let log = Binlog.Log_store.create () in
  let entries = Array.init 10 (fun i -> slice_entry ~index:(i + 1) ~size:100) in
  Array.iter (Binlog.Log_store.append log) entries;
  let slice =
    Binlog.Log_store.read_slice log ~max_bytes:max_int ~from_index:1 ~max_count:10
  in
  Alcotest.(check int) "sliced all ten" 10 (Array.length slice);
  ignore (Binlog.Log_store.truncate_from log ~from_index:6);
  Binlog.Log_store.append log (slice_entry ~index:6 ~size:600);
  purge_closed log;
  Alcotest.(check bool) "purged under the slice" true
    (Binlog.Log_store.entry_at log 1 = None);
  Array.iteri
    (fun k e ->
      Alcotest.(check bool) "same entry" true (e == entries.(k));
      Alcotest.(check int) "index intact" (k + 1) (Binlog.Entry.index e);
      Alcotest.(check bool) "entry still verifies" true (Binlog.Entry.verify e))
    slice

(* ----- windowed replication equivalence ----- *)

(* Pipelining is a transport optimisation: under drop/duplicate/reorder
   link faults, a window of 8 must deliver exactly the same committed
   transaction sequence as stop-and-wait (window 1), and every replica's
   log must match the leader's once the faults heal. *)

let window_case_gen =
  QCheck.Gen.(
    let* seed = 1 -- 10_000 in
    let* drop = 0 -- 20 in
    let* dup = 0 -- 20 in
    let* reorder = 0 -- 30 in
    let* txns = 10 -- 30 in
    return (seed, float_of_int drop /. 100.0, float_of_int dup /. 100.0,
            float_of_int reorder /. 100.0, txns))

let window_arb =
  QCheck.make
    ~print:(fun (seed, drop, dup, reorder, txns) ->
      Printf.sprintf "seed=%d drop=%.2f dup=%.2f reorder=%.2f txns=%d" seed drop dup
        reorder txns)
    window_case_gen

(* One run: returns (committed gtid gnos on the leader, per-node log opids). *)
let run_windowed ~window ~seed ~drop ~dup ~reorder ~txns =
  let params =
    { Test_raft.majority_params with
      Raft.Node.max_inflight_aes = window;
      (* keep n1 leader for the whole run so both runs accept the same
         writes: the property compares transports, not elections *)
      missed_heartbeats = 1_000_000
    }
  in
  let h = Test_raft.make_harness ~seed ~params (Test_raft.three_nodes ()) in
  Test_raft.elect h "n1";
  let spec =
    { Sim.Network.no_faults with
      drop;
      duplicate = dup;
      reorder;
      reorder_delay = 5.0 *. Sim.Engine.ms
    }
  in
  List.iter (fun id -> Sim.Network.set_node_faults h.Test_raft.net id spec)
    [ "n1"; "n2"; "n3" ];
  for i = 1 to txns do
    ignore
      (Raft.Node.client_append
         (Test_raft.raft (Test_raft.get h "n1"))
         (txn_entry ~term:1 ~index:i |> Binlog.Entry.payload));
    Sim.Engine.run_for h.Test_raft.engine (2.0 *. Sim.Engine.ms)
  done;
  Sim.Engine.run_for h.Test_raft.engine Sim.Engine.s;
  Sim.Network.heal_all h.Test_raft.net;
  let n1 = Test_raft.get h "n1" in
  let target = Binlog.Log_store.last_index n1.Test_raft.store in
  let converged =
    Test_raft.run_until h ~timeout:(60.0 *. Sim.Engine.s) (fun () ->
        List.for_all
          (fun id ->
            let n = Test_raft.get h id in
            Raft.Node.commit_index (Test_raft.raft n) = target
            && Binlog.Log_store.last_index n.Test_raft.store = target)
          [ "n1"; "n2"; "n3" ])
  in
  let committed =
    List.filter_map
      (fun e ->
        if Binlog.Entry.index e <= Raft.Node.commit_index (Test_raft.raft n1) then
          Option.map Binlog.Gtid.gno (Binlog.Entry.gtid e)
        else None)
      (Binlog.Log_store.all_entries n1.Test_raft.store)
  in
  let logs =
    List.map
      (fun id ->
        List.map Binlog.Entry.opid
          (Binlog.Log_store.all_entries (Test_raft.get h id).Test_raft.store))
      [ "n1"; "n2"; "n3" ]
  in
  (converged, committed, logs)

let prop_window_equivalence =
  QCheck.Test.make ~name:"window=8 commits exactly what window=1 commits" ~count:15
    window_arb (fun (seed, drop, dup, reorder, txns) ->
      let c1, committed1, logs1 = run_windowed ~window:1 ~seed ~drop ~dup ~reorder ~txns in
      let c8, committed8, logs8 = run_windowed ~window:8 ~seed ~drop ~dup ~reorder ~txns in
      (* both transports converge once healed *)
      c1 && c8
      (* every replica's log matches its leader's (log matching) *)
      && List.for_all (fun l -> l = List.hd logs1) logs1
      && List.for_all (fun l -> l = List.hd logs8) logs8
      (* and the committed transaction sequence is identical *)
      && committed1 = List.init txns (fun i -> i + 1)
      && committed8 = committed1)

(* ----- the leader's ring window against the list it replaced ----- *)

(* One windowed send as the list window held it. *)
type model_send = { m_seq : int; m_first : int; m_last : int; m_sent : float }

(* The leader's bookkeeping for one peer, kept the way [Node] kept it
   before the ring: the window as a list appended at the end, retired by
   [List.partition], searched with [List.find_opt]. *)
type model_peer = {
  mutable win : model_send list; (* oldest first *)
  mutable hb : (int * float) list; (* recent empty AEs, newest first *)
  mutable seqs : int list; (* every seq sent, newest first *)
  mutable next : int;
  mutable matched : int;
  mutable delivered : int;
  mutable send_seq : int;
  mutable rewind_seq : int;
  mutable acked_send : float;
}

type window_op =
  | W_append of int
  | W_ack of int * int * int (* peer, which seq, how far *)
  | W_degraded of int * int (* peer, which outstanding send *)
  | W_nack of int * int * int (* peer, which seq, log-end hint *)
  | W_retransmit

let window_ops_gen =
  QCheck.Gen.(
    pair (1 -- 8)
      (list_size (1 -- 40)
         (frequency
            [
              (3, map (fun k -> W_append k) (1 -- 3));
              (6, map3 (fun p i r -> W_ack (p, i, r)) (0 -- 2) nat nat);
              (1, map2 (fun p i -> W_degraded (p, i)) (0 -- 2) nat);
              (1, map3 (fun p i h -> W_nack (p, i, h)) (0 -- 2) nat nat);
              (1, return W_retransmit);
            ])))

let window_op_to_string = function
  | W_append k -> Printf.sprintf "append%d" k
  | W_ack (p, i, r) -> Printf.sprintf "ack(%d,%d,%d)" p i r
  | W_degraded (p, i) -> Printf.sprintf "degraded(%d,%d)" p i
  | W_nack (p, i, h) -> Printf.sprintf "nack(%d,%d,%d)" p i h
  | W_retransmit -> "retransmit"

let window_ops_arb =
  QCheck.make
    ~print:(fun (window, ops) ->
      Printf.sprintf "window=%d [%s]" window
        (String.concat ";" (List.map window_op_to_string ops)))
    window_ops_gen

let nth_mod l i = List.nth l (i mod List.length l)

(* Drive a leader with three voter peers (so the lease waits on two of
   them) through sends, cumulative acks, degraded-proxy successes, nack
   rewinds and retransmits, mirroring every step in the list model:
   - every entry AE the leader sends starts where the model's frontier
     says (the same rewind point after a nack, degraded success or
     retransmit);
   - a retransmit resends from the oldest send the model holds, with the
     same window length;
   - after every step [raft.window_inflight] equals the sum of the model
     windows (the same sends retired), and the lease equals the one the
     model's acked sends give (the same send sampled for the RTT). *)
let prop_ring_window_matches_list =
  QCheck.Test.make ~name:"ring window matches the list window" ~count:300 window_ops_arb
    (fun (window, ops) ->
      let params =
        {
          Raft.Node.default_params with
          Raft.Node.max_inflight_aes = window;
          heartbeat_interval = 3600.0 *. Sim.Engine.s;
        }
      in
      let ids = [ "p0"; "p1"; "p2" ] in
      let h =
        Kit.Bare.make_leader ~params
          (("L", "r1", true) :: List.map (fun id -> (id, "r1", true)) ids)
      in
      let model =
        List.map
          (fun id ->
            ( id,
              {
                win = [];
                hb = [];
                seqs = [];
                next = 1;
                matched = 0;
                delivered = 0;
                send_seq = 0;
                rewind_seq = 0;
                acked_send = neg_infinity;
              } ))
          ids
      in
      let peer id = List.assoc id model in
      let check what b = if not b then QCheck.Test.fail_reportf "%s" what in
      let rewind m ~from =
        m.win <- [];
        m.rewind_seq <- m.send_seq;
        m.next <- max (m.matched + 1) from
      in
      let keep = (2 * window) + 8 in
      (* Feed the captured sends into the model, in send order. *)
      let take_sends () =
        Queue.iter
          (fun (dst, (ae : Raft.Message.append_entries)) ->
            let m = peer dst in
            m.send_seq <- ae.seq;
            m.seqs <- ae.seq :: m.seqs;
            match ae.payload with
            | Raft.Message.Entries [||] ->
              m.hb <- (ae.seq, ae.leader_time) :: List.filteri (fun i _ -> i < keep) m.hb
            | Raft.Message.Entries es ->
              let first = Binlog.Entry.index es.(0) in
              let last = Binlog.Entry.index es.(Array.length es - 1) in
              check (Printf.sprintf "%s: send from %d, frontier %d" dst first m.next)
                (first = m.next);
              let send =
                {
                  m_seq = ae.seq;
                  m_first = first;
                  m_last = last;
                  m_sent = ae.leader_time;
                }
              in
              m.win <- m.win @ [ send ];
              check (dst ^ ": window overflow") (List.length m.win <= window);
              m.next <- last + 1
            | Raft.Message.Refs _ -> check "no proxying in one region" false)
          h.Kit.Bare.sent;
        Queue.clear h.Kit.Bare.sent
      in
      (* Retransmits fire on the leader's timers; the trace says when,
         from where and over how many sends. *)
      let traced = ref 0 in
      let advance dt =
        Sim.Engine.run_for h.Kit.Bare.engine dt;
        let entries = Sim.Trace.entries_with_tag h.Kit.Bare.trace "raft" in
        let fresh = List.filteri (fun i _ -> i >= !traced) entries in
        traced := List.length entries;
        let retransmits =
          List.filter_map
            (fun e ->
              try
                Some
                  (Scanf.sscanf e.Sim.Trace.message
                     "%_s@: retransmit to %s from index %d (window %d)"
                     (fun id from len -> (e.Sim.Trace.time, id, from, len)))
              with Scanf.Scan_failure _ | End_of_file -> None)
            fresh
        in
        (* Each peer's resends follow its own retransmit, at its time. *)
        let sends = List.of_seq (Queue.to_seq h.Kit.Bare.sent) in
        Queue.clear h.Kit.Bare.sent;
        List.iter
          (fun (time, id, from, len) ->
            let m = peer id in
            (match m.win with
            | oldest :: _ ->
              check
                (Printf.sprintf "%s: retransmit from %d, model %d" id from oldest.m_first)
                (from = oldest.m_first);
              check
                (Printf.sprintf "%s: retransmit window %d, model %d" id len
                   (List.length m.win))
                (len = List.length m.win)
            | [] -> check (id ^ ": retransmit of an empty window") false);
            rewind m ~from;
            List.iter
              (fun ((dst, (ae : Raft.Message.append_entries)) as x) ->
                if dst = id && ae.leader_time = time then Queue.push x h.Kit.Bare.sent)
              sends;
            take_sends ())
          retransmits;
        check "only retransmits send on a timer"
          (List.for_all
             (fun (dst, (ae : Raft.Message.append_entries)) ->
               List.exists
                 (fun (time, id, _, _) -> id = dst && ae.leader_time = time)
                 retransmits)
             sends)
      in
      let lease_duration =
        (float_of_int params.missed_heartbeats *. params.heartbeat_interval
         *. (1.0 -. params.max_clock_drift))
        -. params.lease_drift_margin
      in
      let lease = ref neg_infinity in
      (* The lease threshold of four voters with the leader at infinity:
         the second latest of the peers' acked sends. *)
      let extend_lease () =
        let acked = List.map (fun (_, m) -> m.acked_send) model in
        match List.sort (fun a b -> compare b a) acked with
        | _ :: second :: _ when second > neg_infinity ->
          lease := max !lease (second +. lease_duration)
        | _ -> ()
      in
      let success id m ~seq ~durable ~appended =
        (match List.find_opt (fun s -> s.m_seq = seq) m.win with
        | Some s -> if s.m_sent > m.acked_send then m.acked_send <- s.m_sent
        | None -> (
          match List.assoc_opt seq m.hb with
          | Some sent ->
            if sent > m.acked_send then m.acked_send <- sent;
            m.hb <- List.filter (fun (s, _) -> s > seq) m.hb
          | None -> ()));
        extend_lease ();
        if appended > m.delivered then m.delivered <- appended;
        let _, still = List.partition (fun s -> s.m_last <= m.delivered) m.win in
        m.win <- still;
        if List.exists (fun s -> s.m_seq = seq) still then
          rewind m ~from:(List.fold_left (fun acc s -> min acc s.m_first) max_int still);
        let ack = min durable m.delivered in
        if ack > m.matched then m.matched <- ack;
        Kit.Bare.respond h ~peer:id ~success:true ~seq ~durable ~appended;
        take_sends ()
      in
      take_sends ();
      List.iter
        (fun op ->
          advance (if op = W_retransmit then 251.0 *. Sim.Engine.ms else Sim.Engine.ms);
          (match op with
          | W_append k ->
            for _ = 1 to k do
              ignore (Raft.Node.client_append h.Kit.Bare.node Binlog.Entry.Noop)
            done;
            take_sends ()
          | W_ack (p, i, r) ->
            let id = List.nth ids p in
            let m = peer id in
            if m.seqs <> [] then begin
              (* cumulative: how far the follower's log matches, up to
                 the leader's frontier for it *)
              let through = r mod (m.next + 1) in
              success id m ~seq:(nth_mod m.seqs i) ~durable:through ~appended:through
            end
          | W_degraded (p, i) ->
            let id = List.nth ids p in
            let m = peer id in
            if m.win <> [] then begin
              (* the payload was dropped en route: the follower matched
                 only the send's prev anchor *)
              let s = nth_mod m.win i in
              let through = max m.delivered (s.m_first - 1) in
              success id m ~seq:s.m_seq ~durable:through ~appended:through
            end
          | W_nack (p, i, hint) ->
            let id = List.nth ids p in
            let m = peer id in
            if m.seqs <> [] then begin
              let seq = nth_mod m.seqs i in
              let log_end = hint mod (m.next + 1) in
              if seq > m.rewind_seq then begin
                if log_end < m.matched then begin
                  m.matched <- log_end;
                  m.delivered <- min m.delivered log_end
                end;
                rewind m ~from:(max 1 (min (m.next - 1) (log_end + 1)))
              end;
              Kit.Bare.respond h ~peer:id ~success:false ~seq ~durable:log_end
                ~appended:log_end;
              take_sends ()
            end
          | W_retransmit -> ());
          let total =
            List.fold_left (fun acc (_, m) -> acc + List.length m.win) 0 model
          in
          check
            (Printf.sprintf "after %s: raft.window_inflight %g, model %d"
               (window_op_to_string op) (Helpers.window_gauge h) total)
            (Helpers.window_gauge h = float_of_int total);
          check
            (Printf.sprintf "after %s: lease until %g, model %g" (window_op_to_string op)
               (Raft.Node.lease_until h.Kit.Bare.node) !lease)
            (Raft.Node.lease_until h.Kit.Bare.node = !lease))
        ops;
      true)

(* ----- the designated proxy ----- *)

(* A remote region's members as the leader sees them: each has acked
   late, acked early, or never; acked peers match through 0-2, so the
   pick often breaks a tie.  With [gap], more than the health cutoff
   separates the early acks from the pick (they are stale); without it
   a peer that never acked is still within the cutoff of the leader's
   start, so only its silence excludes it. *)
type proxy_peer = {
  pp_id : string;
  pp_voter : bool;
  pp_ack : [ `Late | `Early | `Never ];
  pp_match : int;
}

let proxy_table_gen =
  QCheck.Gen.(
    let* n = 1 -- 5 in
    let* peers =
      list_repeat n
        (let* voter = bool in
         let* ack =
           frequency [ (3, return `Late); (1, return `Early); (1, return `Never) ]
         in
         let* m = 0 -- 2 in
         return (voter, ack, m))
    in
    (* ids out of config order, so the tie-break is by id, not position *)
    let* ids = shuffle_l (List.init n (fun i -> Printf.sprintf "q%d" i)) in
    let* gap = bool in
    return
      ( gap,
        List.map2
          (fun pp_id (pp_voter, pp_ack, pp_match) ->
            { pp_id; pp_voter; pp_ack; pp_match })
          ids peers ))

let proxy_table_arb =
  QCheck.make
    ~print:(fun (gap, peers) ->
      Printf.sprintf "gap=%b %s" gap
        (String.concat ","
           (List.map
              (fun p ->
                Printf.sprintf "%s%s:%s:%d" p.pp_id
                  (if p.pp_voter then "" else "(learner)")
                  (match p.pp_ack with
                  | `Late -> "late"
                  | `Early -> "early"
                  | `Never -> "never")
                  p.pp_match)
              peers)))
    proxy_table_gen

(* The pick [Node] made before the one-pass scan: the healthy members of
   the region as (match_index, id) pairs, sorted, largest first. *)
let reference_proxy ~gap peers =
  let healthy p = p.pp_ack = `Late || (p.pp_ack = `Early && not gap) in
  match
    List.sort
      (fun a b -> compare b a)
      (List.filter_map
         (fun p -> if healthy p then Some (p.pp_match, p.pp_id) else None)
         peers)
  with
  | (_, id) :: _ -> Some id
  | [] -> None

(* A leader in r1 (with a region-mate, whose acks must not make it a
   candidate) replicates to region r2.  Early peers ack, time passes,
   late peers ack; the next entry's AE to each r2 member then goes
   through the reference's pick — straight to the member when it is the
   pick itself or nobody is healthy. *)
let prop_proxy_pick_matches_sort =
  QCheck.Test.make ~name:"one-pass proxy pick equals the sorted pick" ~count:300
    proxy_table_arb (fun (gap, peers) ->
      let h =
        Kit.Bare.make_leader
          (("L", "r1", true) :: ("M", "r1", true)
          :: List.map (fun p -> (p.pp_id, "r2", p.pp_voter)) peers)
      in
      let node = h.Kit.Bare.node in
      for _ = 1 to 2 do
        ignore (Raft.Node.client_append node Binlog.Entry.Noop)
      done;
      let last_seq = Hashtbl.create 8 in
      let take () =
        Queue.iter
          (fun (dst, (ae : Raft.Message.append_entries)) ->
            Hashtbl.replace last_seq dst ae.seq)
          h.Kit.Bare.sent;
        Queue.clear h.Kit.Bare.sent;
        Queue.clear h.Kit.Bare.hops
      in
      let ack_all kind =
        take ();
        List.iter
          (fun p ->
            if p.pp_ack = kind then
              Kit.Bare.respond h ~peer:p.pp_id ~success:true
                ~seq:(Hashtbl.find last_seq p.pp_id) ~durable:p.pp_match
                ~appended:p.pp_match)
          peers
      in
      ack_all `Early;
      Sim.Engine.run_for h.Kit.Bare.engine ((if gap then 2.0 else 0.5) *. Sim.Engine.s);
      ack_all `Late;
      take ();
      Kit.Bare.respond h ~peer:"M" ~success:true ~seq:(Hashtbl.find last_seq "M")
        ~durable:3 ~appended:3;
      take ();
      ignore (Raft.Node.client_append node Binlog.Entry.Noop);
      let expected = reference_proxy ~gap peers in
      List.for_all
        (fun p ->
          let via =
            List.filter_map
              (fun (hop, dst) -> if dst = p.pp_id then Some hop else None)
              (List.of_seq (Queue.to_seq h.Kit.Bare.hops))
          in
          let hop = match expected with Some id when id <> p.pp_id -> id | _ -> p.pp_id in
          via <> [] && List.for_all (String.equal hop) via)
        peers)

(* ----- storage engine: row slots against the list-and-map engine ----- *)

(* Two tables of four keys, three values and two GTID sources.  A
   transaction writes one table, as a logged transaction does; which
   one is drawn per transaction. *)
let e_tables = [| "t1"; "t2" |]

let e_keys = [| "a"; "b"; "c"; "d" |]

let e_values = [| "x"; "y"; "z" |]

let e_sources = [| "s1"; "s2" |]

(* kind 0 = Insert, 1 = Update, 2 = Delete *)
type e_write = { w_table : int; w_key : int; w_kind : int; w_value : int }

(* A commit picks a prepared transaction; [gap] log indexes before its
   own went to entries that commit nothing (a no-op, a config or rotate
   entry), and [new_term] says a new leader's term starts with it. *)
type e_op =
  | E_prepare of { source : int; skip : bool; reuse : int option; writes : e_write list }
  | E_commit of { pick : int; gap : int; new_term : bool }
  | E_rollback of int
  | E_rollback_gtid of int
  | E_crash
  | E_checkpoint
  | E_restore

let e_write_of w =
  let key = e_keys.(w.w_key) and value = e_values.(w.w_value) in
  ( e_tables.(w.w_table),
    match w.w_kind with
    | 0 -> Binlog.Event.Insert { key; value }
    | 1 -> Binlog.Event.Update { key; before = "?"; after = value }
    | _ -> Binlog.Event.Delete { key; before = "?" } )

let e_op_gen =
  QCheck.Gen.(
    let write =
      map
        (fun (w_key, w_kind, w_value) -> { w_table = 0; w_key; w_kind; w_value })
        (triple (0 -- 3) (0 -- 2) (0 -- 2))
    in
    frequency
      [
        ( 6,
          map
            (fun ((source, skip), reuse, (w_table, writes)) ->
              let writes = List.map (fun w -> { w with w_table }) writes in
              E_prepare { source; skip; reuse; writes })
            (triple
               (pair (0 -- 1) (frequency [ (5, return false); (1, return true) ]))
               (opt ~ratio:0.15 (0 -- 20))
               (pair (0 -- 1) (list_size (1 -- 3) write))) );
        ( 4,
          map
            (fun (pick, gap, new_term) -> E_commit { pick; gap; new_term })
            (triple (0 -- 10)
               (frequency [ (6, return 0); (1, 1 -- 2) ])
               (frequency [ (8, return false); (1, return true) ])) );
        (2, map (fun i -> E_rollback i) (0 -- 10));
        (1, map (fun i -> E_rollback_gtid i) (0 -- 20));
        (1, return E_crash);
        (1, return E_checkpoint);
        (1, return E_restore);
      ])

let e_op_to_string = function
  | E_prepare { source; skip; reuse; writes } ->
    Printf.sprintf "P(s%d%s%s:%s)" (source + 1) (if skip then ",gap" else "")
      (match reuse with Some i -> Printf.sprintf ",reuse %d" i | None -> "")
      (String.concat ","
         (List.map
            (fun w ->
              Printf.sprintf "%s.%s%s" e_tables.(w.w_table) e_keys.(w.w_key)
                (match w.w_kind with
                | 0 -> "=I" ^ e_values.(w.w_value)
                | 1 -> "=U" ^ e_values.(w.w_value)
                | _ -> "=D"))
            writes))
  | E_commit { pick; gap; new_term } ->
    Printf.sprintf "C%d%s%s" pick
      (if gap > 0 then Printf.sprintf ",gap%d" gap else "")
      (if new_term then ",term" else "")
  | E_rollback i -> Printf.sprintf "R%d" i
  | E_rollback_gtid i -> Printf.sprintf "RG%d" i
  | E_crash -> "CRASH"
  | E_checkpoint -> "CK"
  | E_restore -> "RESTORE"

let e_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map e_op_to_string ops))
    QCheck.Gen.(list_size (1 -- 60) e_op_gen)

(* A reference engine with the same semantics and the plainest state:
   rows and locks as association lists keyed by (table, key), prepared
   transactions as a list, the executed set grown by [Gtid_set.add].
   Beside them it keeps the rows in stdlib [Hashtbl.Make] tables, added
   and removed in commit order, whose fold order the engine's
   checkpoints must keep. *)
module Ref_engine = struct
  module H = Hashtbl.Make (struct
    type t = string

    let equal = String.equal

    let hash = Hashtbl.hash
  end)

  (* The engine's checkpoint, field for field, so the engine's encoded
     bytes decode as one and a reference one encodes to the same
     bytes. *)
  type checkpoint = {
    ck_rows : (string * (string * string * Binlog.Gtid.t option) list) list;
    ck_gtid_executed : Binlog.Gtid_set.t;
    ck_last_committed_opid : Binlog.Opid.t;
    ck_committed_count : int;
    ck_digests : int32 list;
    ck_commit_log : (Binlog.Gtid.t * Binlog.Opid.t) list;
  }

  type txn = { id : int; gtid : Binlog.Gtid.t; writes : (string * Binlog.Event.row_op) list }

  type committed = {
    rows : ((string * string) * string) list;
    gtids : Binlog.Gtid_set.t;
    last_opid : Binlog.Opid.t;
    digests : int list; (* newest first *)
    history : (Binlog.Gtid.t * Binlog.Opid.t) list; (* newest first *)
  }

  type t = {
    mutable c : committed;
    mutable prepared : txn list;
    mutable locks : ((string * string) * Binlog.Gtid.t) list;
    (* Tables join at their first commit; each maps a key to its value
       and last writer. *)
    tables : (string * Binlog.Gtid.t) H.t H.t;
  }

  let create () =
    {
      c =
        {
          rows = [];
          gtids = Binlog.Gtid_set.empty;
          last_opid = Binlog.Opid.zero;
          digests = [];
          history = [];
        };
      prepared = [];
      locks = [];
      tables = H.create 8;
    }

  let key_of = function
    | Binlog.Event.Insert { key; _ } | Update { key; _ } | Delete { key; _ } -> key

  type outcome = Prepared | Conflict of string * string * Binlog.Gtid.t | Duplicate

  let prepare t ~id ~gtid ~writes =
    if List.exists (fun p -> Binlog.Gtid.equal p.gtid gtid) t.prepared then Duplicate
    else
      let keys = List.map (fun (tbl, op) -> (tbl, key_of op)) writes in
      match
        List.find_opt
          (fun k ->
            match List.assoc_opt k t.locks with
            | Some holder -> not (Binlog.Gtid.equal holder gtid)
            | None -> false)
          keys
      with
      | Some ((tbl, key) as k) -> Conflict (tbl, key, List.assoc k t.locks)
      | None ->
        List.iter (fun k -> t.locks <- (k, gtid) :: List.remove_assoc k t.locks) keys;
        t.prepared <- { id; gtid; writes } :: t.prepared;
        Prepared

  let release t p =
    List.iter (fun (tbl, op) -> t.locks <- List.remove_assoc (tbl, key_of op) t.locks) p.writes;
    t.prepared <- List.filter (fun q -> q.id <> p.id) t.prepared

  (* The commit digest chain, field for field. *)
  let digest ~prev ~gtid ~opid writes =
    let open Binlog.Checksum in
    let st = feed_int init prev in
    let st = feed_string st (Binlog.Gtid.source gtid) in
    let st = feed_int st (Binlog.Gtid.gno gtid) in
    let st = feed_int st (Binlog.Opid.term opid) in
    let st = feed_int st (Binlog.Opid.index opid) in
    let st =
      List.fold_left
        (fun st (tbl, op) ->
          let st = feed_string st tbl in
          match op with
          | Binlog.Event.Insert { key; value } ->
            feed_string (feed_string (feed_int st 1) key) value
          | Binlog.Event.Update { key; before; after } ->
            feed_string (feed_string (feed_string (feed_int st 2) key) before) after
          | Binlog.Event.Delete { key; before } ->
            feed_string (feed_string (feed_int st 3) key) before)
        st writes
    in
    finalize_int st

  let table_for_commit t name =
    match H.find_opt t.tables name with
    | Some rows -> rows
    | None ->
      let rows = H.create 64 in
      H.add t.tables name rows;
      rows

  (* A row that appears is added, one that goes is removed, and an
     update keeps its row's place. *)
  let commit_rows t p =
    match p.writes with
    | [] -> ()
    | (table, _) :: _ ->
      let rows = table_for_commit t table in
      List.iter
        (fun (_, op) ->
          match op with
          | Binlog.Event.Insert { key; value } | Update { key; after = value; _ } ->
            H.replace rows key (value, p.gtid)
          | Delete { key; _ } -> H.remove rows key)
        p.writes

  let ck_rows t =
    H.fold
      (fun name rows acc ->
        ( name,
          H.fold (fun key (value, writer) acc -> (key, value, Some writer) :: acc) rows [] )
        :: acc)
      t.tables []

  (* Reseat the row tables from [ck_rows], replacing row by row in its
     order, as the engine's restore does. *)
  let restore_rows t ck_rows =
    H.reset t.tables;
    List.iter
      (fun (name, rows) ->
        let tbl = table_for_commit t name in
        List.iter
          (fun (key, value, writer) -> H.replace tbl key (value, Option.get writer))
          rows)
      ck_rows

  let checkpoint t =
    {
      ck_rows = ck_rows t;
      ck_gtid_executed = t.c.gtids;
      ck_last_committed_opid = t.c.last_opid;
      ck_committed_count = List.length t.c.history;
      ck_digests = List.rev_map Int32.of_int t.c.digests;
      ck_commit_log = List.rev t.c.history;
    }

  let commit t p ~opid =
    release t p;
    commit_rows t p;
    let rows =
      List.fold_left
        (fun rows (tbl, op) ->
          match op with
          | Binlog.Event.Insert { key; value } | Update { key; after = value; _ } ->
            ((tbl, key), value) :: List.remove_assoc (tbl, key) rows
          | Delete { key; _ } -> List.remove_assoc (tbl, key) rows)
        t.c.rows p.writes
    in
    let prev = match t.c.digests with d :: _ -> d | [] -> 0 in
    t.c <-
      {
        rows;
        gtids = Binlog.Gtid_set.add t.c.gtids p.gtid;
        last_opid =
          (if Binlog.Opid.compare opid t.c.last_opid > 0 then opid else t.c.last_opid);
        digests = digest ~prev ~gtid:p.gtid ~opid p.writes :: t.c.digests;
        history = (p.gtid, opid) :: t.c.history;
      }

  let crash_recover t =
    let n = List.length t.prepared in
    t.prepared <- [];
    t.locks <- [];
    n

  (* A CRC over the sorted rows, each string length-prefixed. *)
  let checksum t =
    let rows = List.map (fun ((tbl, key), value) -> (tbl, key, value)) t.c.rows in
    let open Binlog.Checksum in
    let feed st s = feed_string (feed_int st (String.length s)) s in
    finalize
      (List.fold_left
         (fun st (tbl, key, value) -> feed (feed (feed st tbl) key) value)
         init (List.sort compare rows))
end

let e_fail fmt = QCheck.Test.fail_reportf fmt

(* Every read the engine offers, against the reference. *)
let e_agree e (m : Ref_engine.t) ~used ~handles =
  Array.iter
    (fun table ->
      Array.iter
        (fun key ->
          let want = List.assoc_opt (table, key) m.c.rows in
          if Storage.Engine.get e ~table ~key <> want then e_fail "get %s.%s" table key)
        e_keys;
      let want = List.length (List.filter (fun ((t, _), _) -> t = table) m.c.rows) in
      if Storage.Engine.row_count e ~table <> want then
        e_fail "row_count %s: %d, want %d" table (Storage.Engine.row_count e ~table) want)
    e_tables;
  if Storage.Engine.checksum e <> Ref_engine.checksum m then e_fail "checksum";
  let n = List.length m.c.history in
  if Storage.Engine.committed_count e <> n then e_fail "committed_count";
  let digests = Array.of_list (List.rev m.c.digests) in
  for count = 0 to n do
    let want = if count = 0 then 0l else Int32.of_int digests.(count - 1) in
    if Storage.Engine.checksum_at e ~count <> want then e_fail "checksum_at %d" count
  done;
  let history = Array.of_list (List.rev m.c.history) in
  for i = -1 to n do
    let same =
      match (Storage.Engine.nth_commit e i, i >= 0 && i < n) with
      | None, false -> true
      | Some (g, o), true ->
        let g', o' = history.(i) in
        Binlog.Gtid.equal g g' && Binlog.Opid.equal o o'
      | _ -> false
    in
    if not same then e_fail "nth_commit %d" i
  done;
  let executed = Storage.Engine.gtid_executed e in
  if not (Binlog.Gtid_set.equal executed m.c.gtids) then
    e_fail "gtid_executed %s, want %s"
      (Binlog.Gtid_set.to_string executed)
      (Binlog.Gtid_set.to_string m.c.gtids);
  if Marshal.to_string executed [] <> Marshal.to_string m.c.gtids [] then
    e_fail "gtid_executed marshals differently";
  if not (Binlog.Opid.equal (Storage.Engine.last_committed_opid e) m.c.last_opid) then
    e_fail "last_committed_opid";
  List.iter
    (fun g ->
      if Storage.Engine.has_committed e g <> Binlog.Gtid_set.contains m.c.gtids g then
        e_fail "has_committed %s" (Binlog.Gtid.to_string g);
      let prepared = List.exists (fun p -> Binlog.Gtid.equal p.Ref_engine.gtid g) m.prepared in
      if Storage.Engine.is_prepared e g <> prepared then
        e_fail "is_prepared %s" (Binlog.Gtid.to_string g))
    used;
  let sorted l = List.sort Binlog.Gtid.compare l in
  if
    List.map Binlog.Gtid.to_string (sorted (Storage.Engine.prepared_gtids e))
    <> List.map
         (fun p -> Binlog.Gtid.to_string p.Ref_engine.gtid)
         (List.sort (fun a b -> Binlog.Gtid.compare a.Ref_engine.gtid b.Ref_engine.gtid) m.prepared)
  then e_fail "prepared_gtids";
  List.iter
    (fun (id, h) ->
      if Storage.Engine.live h <> List.exists (fun p -> p.Ref_engine.id = id) m.prepared then
        e_fail "handle %d liveness" id)
    handles;
  let bytes = Storage.Engine.encode_checkpoint (Storage.Engine.checkpoint e) in
  let want = Ref_engine.checkpoint m in
  let got : Ref_engine.checkpoint = Marshal.from_string bytes 0 in
  let show_rows ck_rows =
    String.concat "; "
      (List.map
         (fun (name, rows) ->
           name ^ ":" ^ String.concat "," (List.map (fun (key, _, _) -> key) rows))
         ck_rows)
  in
  if got.ck_rows <> want.ck_rows then
    e_fail "checkpoint rows %s, want %s" (show_rows got.ck_rows) (show_rows want.ck_rows);
  if bytes <> Marshal.to_string want [ Marshal.No_sharing ] then e_fail "checkpoint bytes"

let run_engine_ops ops =
  let e = Storage.Engine.create () and m = Ref_engine.create () in
  let next_gno = Array.make (Array.length e_sources) 1 in
  let used = ref [] (* every GTID ever prepared, newest first *)
  and handles = ref [] (* (txn id, handle), newest first *)
  and next_id = ref 0
  and next_index = ref 1
  and term = ref 1
  and saved = ref None in
  let nth l i = List.nth l (i mod List.length l) in
  let step = function
    | E_prepare { source; skip; reuse; writes } ->
      let gtid =
        match reuse with
        | Some i when !used <> [] -> nth !used i
        | _ ->
          if skip then next_gno.(source) <- next_gno.(source) + 1;
          let g = Binlog.Gtid.make ~source:e_sources.(source) ~gno:next_gno.(source) in
          next_gno.(source) <- next_gno.(source) + 1;
          g
      in
      if not (List.exists (Binlog.Gtid.equal gtid) !used) then used := gtid :: !used;
      let writes = List.map e_write_of writes in
      let id = !next_id in
      incr next_id;
      let got =
        let table = match writes with (table, _) :: _ -> table | [] -> e_tables.(0) in
        match Storage.Engine.prepare e ~gtid ~table ~ops:(List.map snd writes) with
        | h ->
          handles := (id, h) :: !handles;
          Ref_engine.Prepared
        | exception Storage.Engine.Lock_conflict { table; key; holder } ->
          Ref_engine.Conflict (table, key, holder)
        | exception Invalid_argument _ -> Ref_engine.Duplicate
      in
      let same =
        match (got, Ref_engine.prepare m ~id ~gtid ~writes) with
        | Prepared, Prepared | Duplicate, Duplicate -> true
        | Conflict (t, k, h), Conflict (t', k', h') ->
          t = t' && k = k' && Binlog.Gtid.equal h h'
        | _ -> false
      in
      if not same then e_fail "prepare %s: outcomes differ" (Binlog.Gtid.to_string gtid)
    | E_commit { pick = i; gap; new_term } -> (
      match m.prepared with
      | [] -> (
        (* only dead handles: committing one must refuse *)
        match !handles with
        | [] -> ()
        | hs -> (
          let _, h = nth hs i in
          match Storage.Engine.commit_prepared e h ~opid:Binlog.Opid.zero with
          | () -> e_fail "committed a dead handle"
          | exception Invalid_argument _ -> ()))
      | ps ->
        let p = nth ps i in
        if new_term then incr term;
        next_index := !next_index + gap;
        let opid = Binlog.Opid.make ~term:!term ~index:!next_index in
        incr next_index;
        Storage.Engine.commit_prepared e (List.assoc p.Ref_engine.id !handles) ~opid;
        Ref_engine.commit m p ~opid)
    | E_rollback i -> (
      match !handles with
      | [] -> ()
      | hs ->
        let id, h = nth hs i in
        Storage.Engine.rollback_prepared e h;
        List.iter
          (fun p -> if p.Ref_engine.id = id then Ref_engine.release m p)
          m.prepared)
    | E_rollback_gtid i -> (
      match !used with
      | [] -> ()
      | gs ->
        let g = nth gs i in
        Storage.Engine.rollback_gtid e g;
        List.iter
          (fun p -> if Binlog.Gtid.equal p.Ref_engine.gtid g then Ref_engine.release m p)
          m.prepared)
    | E_crash ->
      let n = Storage.Engine.crash_recover e in
      if n <> Ref_engine.crash_recover m then e_fail "crash_recover count"
    | E_checkpoint ->
      saved := Some (Storage.Engine.checkpoint e, m.c, Ref_engine.ck_rows m)
    | E_restore -> (
      match !saved with
      | None -> ()
      | Some (ck, c, ck_rows) ->
        Storage.Engine.restore e ck;
        ignore (Ref_engine.crash_recover m);
        m.c <- c;
        Ref_engine.restore_rows m ck_rows)
  in
  List.iter
    (fun op ->
      step op;
      e_agree e m ~used:!used ~handles:!handles)
    ops;
  true

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"row slots behave as the list-and-map engine" ~count:500
    e_ops_arb run_engine_ops

(* ----- GTID accumulator against the persistent set ----- *)

let g_sources = [| "a"; "b"; "c" |]

type g_op =
  | G_tip (* the next gno of the last added source *)
  | G_gap of int (* the last added source, leaving a gap *)
  | G_other of int * int (* any source, any gno *)
  | G_dup of int (* a GTID already in the set *)
  | G_remove of int * int
  | G_union of (int * int) list
  | G_replace of (int * int) list
  | G_read

let g_pair = QCheck.Gen.(pair (0 -- 2) (1 -- 30))

let g_op_gen =
  QCheck.Gen.(
    frequency
      [
        (12, return G_tip);
        (2, map (fun k -> G_gap k) (1 -- 3));
        (3, map (fun (s, g) -> G_other (s, g)) g_pair);
        (2, map (fun i -> G_dup i) (0 -- 50));
        (2, map (fun (s, g) -> G_remove (s, g)) g_pair);
        (1, map (fun l -> G_union l) (list_size (0 -- 4) g_pair));
        (1, map (fun l -> G_replace l) (list_size (0 -- 4) g_pair));
        (3, return G_read);
      ])

let g_op_to_string = function
  | G_tip -> "T"
  | G_gap k -> Printf.sprintf "G%d" k
  | G_other (s, g) -> Printf.sprintf "O%s:%d" g_sources.(s) g
  | G_dup i -> Printf.sprintf "D%d" i
  | G_remove (s, g) -> Printf.sprintf "X%s:%d" g_sources.(s) g
  | G_union l -> Printf.sprintf "U%d" (List.length l)
  | G_replace l -> Printf.sprintf "S%d" (List.length l)
  | G_read -> "R"

let g_ops_arb =
  QCheck.make
    ~print:(fun ops -> String.concat " " (List.map g_op_to_string ops))
    QCheck.Gen.(list_size (1 -- 80) g_op_gen)

let g_set_of l =
  List.fold_left
    (fun acc (s, g) -> Binlog.Gtid_set.add acc (Binlog.Gtid.make ~source:g_sources.(s) ~gno:g))
    Binlog.Gtid_set.empty l

let run_gtid_acc_ops ops =
  let acc = Binlog.Gtid_set.Acc.create () in
  let reference = ref Binlog.Gtid_set.empty and last = ref 0 in
  let add s g =
    let gtid = Binlog.Gtid.make ~source:g_sources.(s) ~gno:g in
    Binlog.Gtid_set.Acc.add acc gtid;
    reference := Binlog.Gtid_set.add !reference gtid;
    last := s
  in
  let read () =
    let got = Binlog.Gtid_set.Acc.get acc in
    if not (Binlog.Gtid_set.equal got !reference) then
      e_fail "read %s, want %s" (Binlog.Gtid_set.to_string got)
        (Binlog.Gtid_set.to_string !reference);
    if Marshal.to_string got [] <> Marshal.to_string !reference [] then
      e_fail "read %s marshals differently" (Binlog.Gtid_set.to_string got)
  in
  let next s = Binlog.Gtid_set.max_gno !reference ~source:g_sources.(s) + 1 in
  List.iter
    (fun op ->
      (match op with
      | G_tip -> add !last (next !last)
      | G_gap k -> add !last (next !last + k)
      | G_other (s, g) -> add s g
      | G_dup i -> (
        match Binlog.Gtid_set.fold_gtids !reference ~init:[] (fun l g -> g :: l) with
        | [] -> ()
        | gs ->
          let g = List.nth gs (i mod List.length gs) in
          Binlog.Gtid_set.Acc.add acc g;
          reference := Binlog.Gtid_set.add !reference g)
      | G_remove (s, g) ->
        let gtid = Binlog.Gtid.make ~source:g_sources.(s) ~gno:g in
        Binlog.Gtid_set.Acc.remove acc gtid;
        reference := Binlog.Gtid_set.remove !reference gtid
      | G_union l ->
        let u = g_set_of l in
        Binlog.Gtid_set.Acc.union acc u;
        reference := Binlog.Gtid_set.union !reference u
      | G_replace l ->
        let u = g_set_of l in
        Binlog.Gtid_set.Acc.set acc u;
        reference := u
      | G_read -> read ());
      Array.iter
        (fun source ->
          for gno = 1 to Binlog.Gtid_set.max_gno !reference ~source + 3 do
            let g = Binlog.Gtid.make ~source ~gno in
            if Binlog.Gtid_set.Acc.contains acc g <> Binlog.Gtid_set.contains !reference g then
              e_fail "contains %s" (Binlog.Gtid.to_string g)
          done)
        g_sources)
    ops;
  read ();
  true

let prop_gtid_acc_matches_set =
  QCheck.Test.make ~name:"open-tip accumulator reads as the add chain" ~count:1000 g_ops_arb
    run_gtid_acc_ops

let suites =
  [
    ( "properties.log_store",
      [
        QCheck_alcotest.to_alcotest prop_log_store_invariants;
        QCheck_alcotest.to_alcotest prop_log_store_append_after_anything;
        QCheck_alcotest.to_alcotest prop_log_store_term_at_boundary;
      ] );
    ( "properties.quorum",
      [
        QCheck_alcotest.to_alcotest prop_flexiraft_quorum_intersection;
        QCheck_alcotest.to_alcotest prop_majority_quorums_intersect;
        QCheck_alcotest.to_alcotest prop_pessimistic_election_intersects_all_regions;
        QCheck_alcotest.to_alcotest prop_commit_point_matches_scan;
        QCheck_alcotest.to_alcotest prop_lease_point_matches_list_search;
      ] );
    ( "properties.tracebuf",
      [ QCheck_alcotest.to_alcotest prop_tracebuf_matches_record_ring ] );
    ( "properties.log_cache",
      [
        QCheck_alcotest.to_alcotest prop_slice_equals_copying_read;
        Alcotest.test_case "slice survives eviction" `Quick test_slice_survives_eviction;
      ] );
    ( "properties.window",
      [
        QCheck_alcotest.to_alcotest prop_window_equivalence;
        QCheck_alcotest.to_alcotest prop_ring_window_matches_list;
      ] );
    ("properties.proxy", [ QCheck_alcotest.to_alcotest prop_proxy_pick_matches_sort ]);
    ("properties.engine", [ QCheck_alcotest.to_alcotest prop_engine_matches_reference ]);
    ("properties.gtid_acc", [ QCheck_alcotest.to_alcotest prop_gtid_acc_matches_set ]);
  ]
