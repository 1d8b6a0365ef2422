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
         events =
           [
             Binlog.Event.make
               (Binlog.Event.Write_rows
                  { table = "t"; ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ] });
           ];
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

let prop_commit_point_matches_scan =
  QCheck.Test.make ~name:"commit_point equals the per-index scan" ~count:2000 commit_arb
    (fun (mode, cfg, leader, upto, self_durable, above, peers) ->
      let ack id =
        if id = leader.Raft.Types.id then self_durable
        else Option.value (List.assoc_opt id peers) ~default:0
      in
      Raft.Quorum.commit_point mode cfg ~leader_region:leader.Raft.Types.region ~ack ~above
        ~upto
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

let prop_lease_point_matches_list_search =
  QCheck.Test.make ~name:"lease_point equals the list-building search" ~count:3000 lease_arb
    (fun (mode, cfg, leader, (now, now_global), peers) ->
      let sends = Hashtbl.create 8 in
      List.iter (fun (pid, send) -> Hashtbl.replace sends pid send) peers;
      Raft.Quorum.lease_point mode cfg ~leader_region:leader.Raft.Types.region
        ~self:leader.Raft.Types.id ~now ~now_global ~sends ~local:fst ~global:snd
      = reference_lease_point mode cfg ~leader ~now ~now_global ~peers)

(* ----- append stamps ----- *)

type stamp_op = Append of int | Truncate of int | Commit of int

(* Long append runs against short commit steps, so the commit lag
   outgrows the initial ring; truncations may cut below the commit index
   (crash recovery) and re-appends overwrite earlier stamps. *)
let stamp_ops_gen =
  QCheck.Gen.(
    list_size (0 -- 40)
      (frequency
         [
           (4, map (fun n -> Append n) (0 -- 120));
           (1, map (fun n -> Truncate n) (0 -- 60));
           (3, map (fun n -> Commit n) (0 -- 90));
         ]))

let stamp_ops_arb =
  QCheck.make
    ~print:(fun ops ->
      String.concat ";"
        (List.map
           (function
             | Append n -> Printf.sprintf "A%d" n
             | Truncate n -> Printf.sprintf "T%d" n
             | Commit n -> Printf.sprintf "C%d" n)
           ops))
    stamp_ops_gen

(* Drive the stamp ring and the Hashtbl [Node] kept before it through the
   same appends, truncations and commits; the commit-latency samples (one
   per committed index that has a stamp) must agree. *)
let stamp_samples ops =
  let ring = Raft.Append_stamps.create () in
  let table = Hashtbl.create 256 in
  let last = ref 0 and commit = ref 0 and clock = ref 0.0 in
  let ring_samples = ref [] and table_samples = ref [] in
  List.iter
    (function
      | Append n ->
        for _ = 1 to n do
          incr last;
          clock := !clock +. 0.5;
          Raft.Append_stamps.stamp ring ~commit_index:!commit !last !clock;
          Hashtbl.replace table !last !clock
        done
      | Truncate n -> last := max 0 (!last - n)
      | Commit n ->
        let target = min !last (!commit + n) in
        clock := !clock +. 0.25;
        for idx = !commit + 1 to target do
          let at = Raft.Append_stamps.find ring idx in
          if not (Float.is_nan at) then
            ring_samples := (idx, !clock -. at) :: !ring_samples;
          match Hashtbl.find_opt table idx with
          | Some at ->
            Hashtbl.remove table idx;
            table_samples := (idx, !clock -. at) :: !table_samples
          | None -> ()
        done;
        commit := max !commit target)
    ops;
  (ring, List.rev !ring_samples, List.rev !table_samples)

let prop_append_stamps_match_table =
  QCheck.Test.make ~name:"stamp ring yields the Hashtbl's commit samples" ~count:500
    stamp_ops_arb (fun ops ->
      let _, ring, table = stamp_samples ops in
      ring = table)

let test_append_stamps_outgrow_ring () =
  let ring, samples, reference =
    stamp_samples [ Append 1000; Truncate 300; Append 400; Commit 1100 ]
  in
  Alcotest.(check int) "every committed index sampled" 1100 (List.length samples);
  Alcotest.(check bool) "samples equal the Hashtbl's" true (samples = reference);
  Alcotest.(check bool) "ring doubled past the lag" true
    (Raft.Append_stamps.capacity ring >= 1024)

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

(* ----- log cache: sliced reads ----- *)

(* The ring-backed [read_slice] must return byte-for-byte what the
   pre-slice copying implementation returned: walk from [from_index]
   preferring the cache, fall back to the log, stop at the first missing
   index, stop before the entry that would blow the byte budget — except
   that the first entry always ships. *)

let cache_case_gen =
  QCheck.Gen.(
    let* n = 1 -- 60 in
    let* sizes = list_repeat n (0 -- 800) in
    let* cache_budget = 200 -- 20_000 in
    let* log_hole = 0 -- 3 in
    let* from_index = 1 -- n in
    let* max_count = 0 -- 20 in
    let* byte_budget = 50 -- 5_000 in
    return (sizes, cache_budget, log_hole, from_index, max_count, byte_budget))

let cache_arb =
  QCheck.make
    ~print:(fun (sizes, cb, hole, fi, mc, bb) ->
      Printf.sprintf "n=%d cache=%dB hole=%d from=%d count=%d budget=%dB"
        (List.length sizes) cb hole fi mc bb)
    cache_case_gen

let cache_entry ~index ~size =
  Binlog.Entry.make
    ~opid:(Binlog.Opid.make ~term:1 ~index)
    (Binlog.Entry.Transaction
       {
         gtid = Binlog.Gtid.make ~source:"src" ~gno:index;
         events =
           [
             Binlog.Event.make
               (Binlog.Event.Write_rows
                  {
                    table = "t";
                    ops = [ Binlog.Event.Insert { key = "k"; value = String.make size 'x' } ];
                  });
           ];
       })

(* Reference copying read, straight from the pre-slice implementation. *)
let reference_read cache entries ~read_log ~from_index ~max_count ~max_bytes =
  let rec collect idx n bytes acc =
    if n = 0 then List.rev acc
    else
      let e =
        if Raft.Log_cache.contains cache ~index:idx then Some entries.(idx - 1)
        else read_log idx
      in
      match e with
      | None -> List.rev acc
      | Some e ->
        let sz = Binlog.Entry.size e in
        if acc <> [] && bytes + sz > max_bytes then List.rev acc
        else collect (idx + 1) (n - 1) (bytes + sz) (e :: acc)
  in
  collect from_index max_count 0 []

let prop_cache_slice_equals_copying_read =
  QCheck.Test.make ~name:"sliced reads equal copying reads" ~count:500 cache_arb
    (fun (sizes, cache_budget, log_hole, from_index, max_count, byte_budget) ->
      let n = List.length sizes in
      let entries =
        Array.of_list (List.mapi (fun i size -> cache_entry ~index:(i + 1) ~size) sizes)
      in
      let cache = Raft.Log_cache.create ~max_bytes:cache_budget () in
      Array.iter (Raft.Log_cache.put cache) entries;
      (* the log is missing the last [log_hole] entries, so a cold read
         past the hole stops early *)
      let read_log idx =
        if idx >= 1 && idx <= n - log_hole then Some entries.(idx - 1) else None
      in
      let expected =
        reference_read cache entries ~read_log ~from_index ~max_count
          ~max_bytes:byte_budget
      in
      let got =
        Raft.Log_cache.read_slice cache ~max_bytes:byte_budget ~from_index ~max_count
          ~read_log ()
      in
      Array.length got = List.length expected
      && List.for_all2
           (fun e g -> e == g && Binlog.Entry.verify g)
           expected (Array.to_list got))

(* A slice handed to the transport must survive the cache evicting (or
   truncating) the range under it: the slice holds the entries, not ring
   slots. *)
let test_slice_survives_eviction () =
  let cache = Raft.Log_cache.create ~max_bytes:4_000 () in
  let no_log _ = None in
  for i = 1 to 10 do
    Raft.Log_cache.put cache (cache_entry ~index:i ~size:100)
  done;
  let slice =
    Raft.Log_cache.read_slice cache ~from_index:1 ~max_count:10 ~read_log:no_log ()
  in
  Alcotest.(check int) "sliced all ten" 10 (Array.length slice);
  (* stuff the cache until indexes 1..10 are gone *)
  let i = ref 11 in
  while Raft.Log_cache.contains cache ~index:10 do
    Raft.Log_cache.put cache (cache_entry ~index:!i ~size:600);
    incr i
  done;
  Alcotest.(check bool) "evicted under the slice" false
    (Raft.Log_cache.contains cache ~index:1);
  Array.iteri
    (fun k e ->
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
    ( "properties.stamp_ring",
      [
        QCheck_alcotest.to_alcotest prop_append_stamps_match_table;
        Alcotest.test_case "commit lag outgrows the ring" `Quick
          test_append_stamps_outgrow_ring;
      ] );
    ( "properties.tracebuf",
      [ QCheck_alcotest.to_alcotest prop_tracebuf_matches_record_ring ] );
    ( "properties.log_cache",
      [
        QCheck_alcotest.to_alcotest prop_cache_slice_equals_copying_read;
        Alcotest.test_case "slice survives eviction" `Quick test_slice_survives_eviction;
      ] );
    ( "properties.window",
      [ QCheck_alcotest.to_alcotest prop_window_equivalence ] );
  ]
