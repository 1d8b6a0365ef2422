(* Continuous Raft safety checker.

   The checker walks a live cluster through [probe]s (one per member —
   servers, logtailers, or bare test-harness nodes) and asserts, on every
   call to [check]:

   - election safety: at most one leader per term, ever;
   - commit safety + log matching: once any node commits index i, every
     node's committed prefix holds the identical entry at i (same term,
     same checksum) — across crashes, restarts and torn tails;
   - leader completeness: a newly observed leader's log contains every
     globally committed entry;
   - engine convergence: every replica's commit history is a prefix of
     the most advanced replica's history (per-commit digest chain).

   Violations are recorded (deduplicated) rather than raised, so a chaos
   run can finish and report them all alongside the repro seed. *)

type probe = {
  probe_id : string;
  probe_up : unit -> bool;
  probe_raft : unit -> Raft.Node.t option;
  probe_store : unit -> Binlog.Log_store.t option;
  probe_engine : unit -> Storage.Engine.t option;
}

type violation = {
  v_time : float;
  v_invariant : string;
  v_detail : string;
  v_metrics : Obs.Metrics.snapshot option;
}

let violation_to_string v =
  Printf.sprintf "[%.3fs] %s: %s" (v.v_time /. Sim.Engine.s) v.v_invariant v.v_detail

(* What the checker remembers about a committed index: the entry's term
   and stamped checksum, plus who first reported it (for messages). *)
type committed_entry = { c_term : int; c_sum : int32; c_reporter : string }

type t = {
  now : unit -> float;
  mutable probes : probe list;
  snapshot : (unit -> Obs.Metrics.snapshot) option;
  committed : (int, committed_entry) Hashtbl.t;
  leaders_by_term : (int, string) Hashtbl.t;
  checked_leaderships : (int * string, unit) Hashtbl.t;
  checked_to : (string, int) Hashtbl.t; (* per-probe verified commit prefix *)
  stale_serves_seen : (string, int) Hashtbl.t; (* per-probe lease_stale_serves high-water *)
  crc_cursor : (string, int) Hashtbl.t; (* per-probe rotating CRC re-verify cursor *)
  seen_violations : (string * string, unit) Hashtbl.t; (* dedup key *)
  configs_seen : (int * int, string * string) Hashtbl.t;
      (* (cfg_term, cfg_version) -> (membership signature, first reporter) *)
  checked_reconfig : (int * int * string, unit) Hashtbl.t;
      (* (cfg_term, cfg_version, leader) completeness re-verifications *)
  mutable newest_cfg : (Raft.Types.cfg_id * Raft.Types.config) option;
  mutable max_committed : int;
  mutable violations : violation list; (* newest first *)
}

let create ?snapshot ~now ~probes () =
  {
    now;
    probes;
    snapshot;
    committed = Hashtbl.create 4096;
    leaders_by_term = Hashtbl.create 16;
    checked_leaderships = Hashtbl.create 16;
    checked_to = Hashtbl.create 16;
    stale_serves_seen = Hashtbl.create 16;
    crc_cursor = Hashtbl.create 16;
    seen_violations = Hashtbl.create 16;
    configs_seen = Hashtbl.create 16;
    checked_reconfig = Hashtbl.create 16;
    newest_cfg = None;
    max_committed = 0;
    violations = [];
  }

(* Probes may join mid-run: membership churn provisions brand-new nodes
   that must fall under the same committed-prefix and convergence
   checks.  Idempotent per probe id. *)
let add_probe t probe =
  if not (List.exists (fun p -> p.probe_id = probe.probe_id) t.probes) then
    t.probes <- t.probes @ [ probe ]

let violate t invariant fmt =
  Printf.ksprintf
    (fun detail ->
      if not (Hashtbl.mem t.seen_violations (invariant, detail)) then begin
        Hashtbl.replace t.seen_violations (invariant, detail) ();
        (* Capture the metrics state at the instant of detection, so a
           violation report carries the counters that led up to it. *)
        let v_metrics = Option.map (fun f -> f ()) t.snapshot in
        t.violations <-
          { v_time = t.now (); v_invariant = invariant; v_detail = detail; v_metrics }
          :: t.violations
      end)
    fmt

(* External checkers (e.g. the linearizable-read register check) record
   their violations through the same deduplicated pipeline. *)
let report t ~invariant ~detail = violate t invariant "%s" detail

let entry_sig e = (Binlog.Entry.term e, Binlog.Entry.checksum e)

(* ----- election safety: at most one leader per term, ever ----- *)

let check_election_safety t =
  List.iter
    (fun p ->
      if p.probe_up () then
        match p.probe_raft () with
        | Some raft when Raft.Node.is_leader raft -> (
          let term = Raft.Node.current_term raft in
          match Hashtbl.find_opt t.leaders_by_term term with
          | Some other when other <> p.probe_id ->
            violate t "election-safety" "term %d has two leaders: %s and %s" term other
              p.probe_id
          | Some _ -> ()
          | None -> Hashtbl.replace t.leaders_by_term term p.probe_id)
        | _ -> ())
    t.probes

(* ----- commit safety + log matching on committed prefixes ----- *)

(* Walk each node's newly committed indexes and pin them in the global
   table; any disagreement with an already pinned index is a violation.
   The verified prefix per probe only ever grows, so the walk is
   incremental — a restart (commit index back to 0) rescans nothing. *)
let check_commit_safety t =
  List.iter
    (fun p ->
      if p.probe_up () then
        match (p.probe_raft (), p.probe_store ()) with
        | Some raft, Some store ->
          let ci = Raft.Node.commit_index raft in
          let from = Option.value (Hashtbl.find_opt t.checked_to p.probe_id) ~default:0 in
          for i = from + 1 to ci do
            match Binlog.Log_store.entry_at store i with
            | None -> () (* purged before we saw it; nothing to compare *)
            | Some e -> (
              let term, sum = entry_sig e in
              match Hashtbl.find_opt t.committed i with
              | None ->
                Hashtbl.replace t.committed i { c_term = term; c_sum = sum; c_reporter = p.probe_id }
              | Some c when c.c_term <> term || c.c_sum <> sum ->
                violate t "commit-safety"
                  "index %d committed as (term %d, sum %ld) by %s but %s committed (term %d, sum %ld)"
                  i c.c_term c.c_sum c.c_reporter p.probe_id term sum
              | Some _ -> ())
          done;
          if ci > from then Hashtbl.replace t.checked_to p.probe_id ci;
          if ci > t.max_committed then t.max_committed <- ci
        | _ -> ())
    t.probes

(* ----- leader completeness ----- *)

(* A node elected leader must hold every entry the cluster has committed
   (Raft's leader-completeness property).  Checked once per (term,
   leader) when first observed. *)
let check_leader_completeness t =
  List.iter
    (fun p ->
      if p.probe_up () then
        match (p.probe_raft (), p.probe_store ()) with
        | Some raft, Some store when Raft.Node.is_leader raft ->
          let key = (Raft.Node.current_term raft, p.probe_id) in
          if not (Hashtbl.mem t.checked_leaderships key) then begin
            Hashtbl.replace t.checked_leaderships key ();
            let purged = Binlog.Log_store.purged_below store in
            Hashtbl.iter
              (fun i c ->
                if i >= purged then
                  match Binlog.Log_store.entry_at store i with
                  | None ->
                    violate t "leader-completeness"
                      "leader %s (term %d) is missing committed index %d" p.probe_id
                      (fst key) i
                  | Some e ->
                    let term, sum = entry_sig e in
                    if term <> c.c_term || sum <> c.c_sum then
                      violate t "leader-completeness"
                        "leader %s (term %d) holds a different entry at committed index %d"
                        p.probe_id (fst key) i)
              t.committed
          end
        | _ -> ())
    t.probes

(* ----- engine convergence ----- *)

(* Every replica's engine history must be a prefix of the most advanced
   replica's history: same transactions, same order (per-commit digest
   chain, §5.1's checksum comparison made lag-proof). *)
let check_engine_convergence t =
  let engines =
    List.filter_map
      (fun p ->
        if p.probe_up () then
          match p.probe_engine () with
          | Some e -> Some (p.probe_id, e)
          | None -> None
        else None)
      t.probes
  in
  match engines with
  | [] | [ _ ] -> ()
  | engines ->
    let ref_id, ref_engine =
      List.fold_left
        (fun ((_, best) as acc) ((_, e) as cand) ->
          if Storage.Engine.committed_count e > Storage.Engine.committed_count best then cand
          else acc)
        (List.hd engines) (List.tl engines)
    in
    List.iter
      (fun (id, e) ->
        if id <> ref_id then
          let c = Storage.Engine.committed_count e in
          if
            c > 0
            && Storage.Engine.checksum_at e ~count:c
               <> Storage.Engine.checksum_at ref_engine ~count:c
          then begin
            (* Binary-search the first diverging commit position — the
               digest chain is cumulative, so prefixes agree up to it. *)
            let lo = ref 1 and hi = ref c in
            while !lo < !hi do
              let mid = (!lo + !hi) / 2 in
              if
                Storage.Engine.checksum_at e ~count:mid
                <> Storage.Engine.checksum_at ref_engine ~count:mid
              then hi := mid
              else lo := mid + 1
            done;
            let describe engine =
              match Storage.Engine.nth_commit engine (!lo - 1) with
              | Some (gtid, opid) ->
                Printf.sprintf "%s@%s" (Binlog.Gtid.to_string gtid)
                  (Binlog.Opid.to_string opid)
              | None -> "?"
            in
            violate t "engine-convergence"
              "%s's %d-commit history diverges from the same prefix on %s at commit %d \
               (%s committed %s, %s committed %s)"
              id c ref_id !lo id (describe e) ref_id (describe ref_engine)
          end)
      engines

(* ----- lease validity against global time ----- *)

(* A leader must never serve a lease-path read after the lease has
   expired in *global* (true) time, no matter what its skewed local
   clock claims.  The Raft node counts such serves against its
   engine-time oracle ([lease_stale_serves]); any increase is a
   violation.  The count lives in the node's metrics registry; a node
   built on a fresh registry starts again from zero, so the high-water
   mark re-pins whenever the observed value goes backwards. *)
let check_stale_lease_reads t =
  List.iter
    (fun p ->
      if p.probe_up () then
        match p.probe_raft () with
        | Some raft ->
          let n = Raft.Node.lease_stale_serves raft in
          let seen =
            Option.value (Hashtbl.find_opt t.stale_serves_seen p.probe_id) ~default:0
          in
          if n > seen then
            violate t "stale-lease-read"
              "%s served %d lease read(s) past the lease's global-time expiry" p.probe_id
              (n - seen);
          if n <> seen then Hashtbl.replace t.stale_serves_seen p.probe_id n
        | None -> ())
    t.probes

(* ----- no committed entry may fail its checksum ----- *)

(* Disk corruption must never survive into a served committed prefix:
   recovery is required to detect a CRC mismatch and truncate-and-refetch
   (or refuse to serve) rather than silently keep the bytes.  Re-verifies
   committed entries with a budgeted rotating cursor per probe, so a
   persistent corrupt entry is always caught within a few checks without
   making each check O(log size). *)
let crc_budget = 128

let check_committed_crc t =
  List.iter
    (fun p ->
      if p.probe_up () then
        match (p.probe_raft (), p.probe_store ()) with
        | Some raft, Some store ->
          let ci = Raft.Node.commit_index raft in
          let lo = max 1 (Binlog.Log_store.purged_below store) in
          if ci >= lo then begin
            let start =
              match Hashtbl.find_opt t.crc_cursor p.probe_id with
              | Some c when c >= lo && c <= ci -> c
              | _ -> lo
            in
            let cursor = ref start in
            for _ = 1 to min crc_budget (ci - lo + 1) do
              (match Binlog.Log_store.entry_at store !cursor with
              | Some e when not (Binlog.Entry.verify e) ->
                violate t "corrupt-entry-served"
                  "%s holds a committed entry at index %d that fails its checksum"
                  p.probe_id !cursor
              | _ -> ());
              cursor := if !cursor >= ci then lo else !cursor + 1
            done;
            Hashtbl.replace t.crc_cursor p.probe_id !cursor
          end
        | _ -> ())
    t.probes

(* ----- logless reconfiguration safety ----- *)

let membership_signature cfg =
  String.concat ","
    (List.sort compare
       (List.map
          (fun m ->
            Printf.sprintf "%s%s@%s" m.Raft.Types.id
              (if m.Raft.Types.voter then "*" else "-")
              m.Raft.Types.region)
          (Raft.Types.config_members cfg)))

(* Three oracles over the gossiped config state:

   - config integrity: one identity, one membership — two nodes holding
     the same (term, version) with different member lists mean the
     gossip forked;
   - quorum-overlap safety: consecutive adopted configs must share a
     voter (checked whenever the observed newest identity advances by
     exactly one version, i.e. no step was missed between checks);
   - no committed-entry loss across reconfig: whenever a leader is first
     seen under a new config identity, every globally pinned committed
     entry must still be in its log (the reconfig counterpart of leader
     completeness — a membership swap must not strand committed data on
     evicted members only). *)
let check_config_integrity t =
  List.iter
    (fun p ->
      if p.probe_up () then
        match p.probe_raft () with
        | None -> ()
        | Some raft ->
          let cid = Raft.Node.config_id raft in
          let cfg = Raft.Node.config raft in
          let key = (cid.Raft.Types.cfg_term, cid.Raft.Types.cfg_version) in
          let sg = membership_signature cfg in
          (* The zero identity is the pre-gossip bootstrap placeholder:
             a freshly provisioned joiner snapshots the membership of
             the moment as its starting view and only learns the real
             config identity from its first AppendEntries, so bodies
             under v0@t0 legitimately differ between joiners provisioned
             at different instants.  Only adopted identities (v >= 1)
             make the one-membership-per-identity claim. *)
          if key = (0, 0) then ()
          else
          (match Hashtbl.find_opt t.configs_seen key with
          | None -> Hashtbl.replace t.configs_seen key (sg, p.probe_id)
          | Some (sg0, reporter) when sg0 <> sg ->
            violate t "config-integrity"
              "config %s is [%s] on %s but [%s] on %s"
              (Raft.Types.cfg_id_to_string cid)
              sg0 reporter sg p.probe_id
          | Some _ -> ());
          (match t.newest_cfg with
          | Some (best, best_cfg) when Raft.Types.cfg_id_newer cid best ->
            if
              cid.Raft.Types.cfg_version <= best.Raft.Types.cfg_version + 1
              && not (Raft.Types.voters_overlap best_cfg cfg)
            then
              violate t "reconfig-overlap"
                "config %s [%s] shares no voter with its predecessor %s [%s]"
                (Raft.Types.cfg_id_to_string cid)
                sg
                (Raft.Types.cfg_id_to_string best)
                (membership_signature best_cfg);
            t.newest_cfg <- Some (cid, cfg)
          | Some _ -> ()
          | None -> t.newest_cfg <- Some (cid, cfg));
          if Raft.Node.is_leader raft then begin
            let rkey =
              (cid.Raft.Types.cfg_term, cid.Raft.Types.cfg_version, p.probe_id)
            in
            if not (Hashtbl.mem t.checked_reconfig rkey) then begin
              Hashtbl.replace t.checked_reconfig rkey ();
              match p.probe_store () with
              | None -> ()
              | Some store ->
                let purged = Binlog.Log_store.purged_below store in
                Hashtbl.iter
                  (fun i c ->
                    if i >= purged then
                      match Binlog.Log_store.entry_at store i with
                      | None ->
                        violate t "reconfig-completeness"
                          "leader %s under config %s lost committed index %d"
                          p.probe_id
                          (Raft.Types.cfg_id_to_string cid)
                          i
                      | Some e ->
                        let term, sum = entry_sig e in
                        if term <> c.c_term || sum <> c.c_sum then
                          violate t "reconfig-completeness"
                            "leader %s under config %s holds a different entry at \
                             committed index %d"
                            p.probe_id
                            (Raft.Types.cfg_id_to_string cid)
                            i)
                  t.committed
            end
          end)
    t.probes

let check t =
  check_election_safety t;
  check_commit_safety t;
  check_leader_completeness t;
  check_engine_convergence t;
  check_stale_lease_reads t;
  check_committed_crc t;
  check_config_integrity t

(* ----- end-of-run convergence (after healing + settling) ----- *)

(* With every fault healed and the cluster settled, all up members must
   agree exactly: same log tail, pairwise-identical entries, identical
   engine content. *)
let check_converged t =
  let stores =
    List.filter_map
      (fun p ->
        if p.probe_up () then
          Option.map (fun s -> (p.probe_id, s)) (p.probe_store ())
        else None)
      t.probes
  in
  (match stores with
  | [] | [ _ ] -> ()
  | (ref_id, ref_store) :: rest ->
    List.iter
      (fun (id, store) ->
        if Binlog.Log_store.last_index store <> Binlog.Log_store.last_index ref_store then
          violate t "convergence" "%s log ends at %d but %s ends at %d" id
            (Binlog.Log_store.last_index store) ref_id
            (Binlog.Log_store.last_index ref_store)
        else begin
          let lo =
            max (Binlog.Log_store.purged_below store) (Binlog.Log_store.purged_below ref_store)
          in
          for i = lo to Binlog.Log_store.last_index store do
            match (Binlog.Log_store.entry_at store i, Binlog.Log_store.entry_at ref_store i) with
            | Some a, Some b when entry_sig a <> entry_sig b ->
              violate t "convergence" "%s and %s disagree at log index %d" id ref_id i
            | _ -> ()
          done
        end)
      rest);
  let engines =
    List.filter_map
      (fun p ->
        if p.probe_up () then
          Option.map (fun e -> (p.probe_id, e)) (p.probe_engine ())
        else None)
      t.probes
  in
  match engines with
  | [] | [ _ ] -> ()
  | (ref_id, ref_engine) :: rest ->
    List.iter
      (fun (id, e) ->
        if Storage.Engine.checksum e <> Storage.Engine.checksum ref_engine then
          violate t "convergence" "%s engine content differs from %s" id ref_id)
      rest

let violations t = List.rev t.violations

let violation_count t = List.length t.violations

let max_committed t = t.max_committed

let committed_entries t = Hashtbl.length t.committed
