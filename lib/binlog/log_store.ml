(* The MySQL replication log, usable as Raft's replicated log.

   A store is a sequence of log files plus an index file.  The same store
   can be in [Binlog] mode (the node is a primary writing its own binary
   log) or [Relay] mode (the node is a replica whose log is fed by Raft's
   AppendEntries path); switching between the two — "rewiring" — is one of
   the promotion/demotion orchestration steps (§3.2).  Entries are stored
   once in a flat vector indexed by Raft log index; files hold [first,
   last] ranges over that vector, so rotation and purge are pure metadata
   operations, exactly like MySQL's index file manipulation.

   Invariants:
   - entry at vector slot i (i >= 1) has Raft index i; slot 0 is a sentinel
   - file ranges partition [purged+1, last_index]
   - terms are non-decreasing along the log. *)

type mode = Binlog | Relay

type file = {
  file_name : string;
  previous_gtids : Gtid_set.t; (* header: GTIDs in all earlier files *)
  mutable first : int; (* first entry index in this file; 0 = none yet *)
  mutable last : int; (* last entry index; first-1 when empty *)
  mutable closed : bool;
}

type t = {
  mutable mode : mode;
  mutable files : file list; (* oldest first; last is the open file *)
  mutable current : file; (* last of [files], kept by [set_files] *)
  entries : Entry.t option Vec.t; (* slot per index; None once purged *)
  mutable purged_below : int; (* entries with index < this may be purged *)
  mutable next_file_seq : int;
  mutable gtids : Gtid_set.t; (* all GTIDs currently present in the log *)
  mutable fsyncs : int; (* flush count, for introspection *)
  (* The tail OpId is cached: reading the tail slot is wrong once a purge
     has emptied the slots of a freshly-rotated (empty) current file. *)
  mutable last_cached : Opid.t;
  mutable purge_boundary : Opid.t; (* opid of the highest purged entry *)
  (* Durability model for crash-recovery faults.  Normally every append
     fsyncs (sync_binlog=1) and [synced_index] tracks the tail.  Under the
     buffered fault (an fsync stall) appends stay in the page cache until
     an explicit [sync]; a crash then tears off up to [torn_tail_k] of the
     unsynced tail — the situation §3.3's demotion truncation must cope
     with. *)
  mutable synced_index : int; (* highest index known durable *)
  mutable buffered : bool; (* true: appends don't fsync until [sync] *)
  mutable torn_tail_k : int; (* max unsynced entries lost at crash *)
  m_appends : Obs.Metrics.counter;
  m_bytes_appended : Obs.Metrics.counter;
  m_fsyncs : Obs.Metrics.counter;
  m_truncations : Obs.Metrics.counter;
  m_entries_truncated : Obs.Metrics.counter;
  m_rotations : Obs.Metrics.counter;
  m_fsync_batch : Obs.Metrics.histogram; (* entries flushed per fsync *)
  m_corruption_injected : Obs.Metrics.counter;
  m_corruption_detected : Obs.Metrics.counter;
  m_corruption_truncated : Obs.Metrics.counter;
}

let mode_prefix = function Binlog -> "binlog" | Relay -> "relaylog"

let fresh_file t =
  let name = Printf.sprintf "%s.%06d" (mode_prefix t.mode) t.next_file_seq in
  t.next_file_seq <- t.next_file_seq + 1;
  { file_name = name; previous_gtids = t.gtids; first = 0; last = -1; closed = false }

(* Every change to the file list goes through here, so appends find the
   open file without walking the list. *)
let set_files t files =
  t.files <- files;
  t.current <- List.nth files (List.length files - 1)

let create ?metrics ?(mode = Binlog) () =
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  let t =
    {
      mode;
      files = [];
      current =
        {
          file_name = "";
          previous_gtids = Gtid_set.empty;
          first = 0;
          last = -1;
          closed = false;
        };
      entries = Vec.create ~dummy:None;
      purged_below = 1;
      next_file_seq = 1;
      gtids = Gtid_set.empty;
      fsyncs = 0;
      last_cached = Opid.zero;
      purge_boundary = Opid.zero;
      synced_index = 0;
      buffered = false;
      torn_tail_k = 0;
      m_appends = Obs.Metrics.counter m "binlog.appends";
      m_bytes_appended = Obs.Metrics.counter m "binlog.bytes_appended";
      m_fsyncs = Obs.Metrics.counter m "binlog.fsyncs";
      m_truncations = Obs.Metrics.counter m "binlog.truncations";
      m_entries_truncated = Obs.Metrics.counter m "binlog.entries_truncated";
      m_rotations = Obs.Metrics.counter m "binlog.rotations";
      m_fsync_batch = Obs.Metrics.histogram m "binlog.fsync_batch_entries";
      m_corruption_injected = Obs.Metrics.counter m "binlog.corruption_injected";
      m_corruption_detected = Obs.Metrics.counter m "binlog.corruption_detected";
      m_corruption_truncated = Obs.Metrics.counter m "binlog.corruption_truncated";
    }
  in
  Vec.push t.entries None (* sentinel slot 0 *);
  set_files t [ fresh_file t ];
  t

let mode t = t.mode

let last_index t = Vec.length t.entries - 1

let last_opid t = t.last_cached

let entry_at t index =
  if index <= 0 || index > last_index t then None else Vec.get t.entries index

(* The purge boundary acts like Raft's (last_included_index, term)
   snapshot marker: its term stays answerable so replication whose
   prev-entry sits exactly at the boundary keeps working after PURGE. *)
let term_at t index =
  if index = 0 then Some 0
  else
    match entry_at t index with
    | Some e -> Some (Entry.term e)
    | None ->
      if index = Opid.index t.purge_boundary then Some (Opid.term t.purge_boundary)
      else None

(* [term_at] without the option, for the per-entry callers: -1 when
   unknown or purged. *)
let term_of t index =
  if index = 0 then 0
  else
    match entry_at t index with
    | Some e -> Entry.term e
    | None -> if index = Opid.index t.purge_boundary then Opid.term t.purge_boundary else -1

let append t entry =
  let index = Entry.index entry in
  if index <> last_index t + 1 then
    invalid_arg
      (Printf.sprintf "Log_store.append: index %d but log ends at %d" index (last_index t));
  if Entry.term entry < term_of t (last_index t) then
    invalid_arg "Log_store.append: term regression";
  Vec.push t.entries (Some entry);
  t.last_cached <- Entry.opid entry;
  let f = t.current in
  if f.first = 0 then f.first <- index;
  f.last <- index;
  Obs.Metrics.incr t.m_appends;
  Obs.Metrics.add t.m_bytes_appended (Entry.size entry);
  if not t.buffered then begin
    t.fsyncs <- t.fsyncs + 1;
    t.synced_index <- index;
    Obs.Metrics.incr t.m_fsyncs;
    Obs.Metrics.record t.m_fsync_batch 1.0
  end;
  (match Entry.gtid entry with
  | Some g -> t.gtids <- Gtid_set.add t.gtids g
  | None -> ())

(* Entries in [from_index, from_index + max_count) that are still present.
   Stops early at a purged hole. *)
let entries_from t ~from_index ~max_count =
  let rec collect idx n acc =
    if n = 0 || idx > last_index t then List.rev acc
    else
      match Vec.get t.entries idx with
      | Some e -> collect (idx + 1) (n - 1) (e :: acc)
      | None -> List.rev acc
  in
  collect (max 1 from_index) max_count []

(* Remove all entries with index >= [from_index]; returns them (ascending)
   so the caller can clean up GTID metadata (§3.3 demotion step 4). *)
let truncate_from t ~from_index =
  if from_index <= t.purged_below - 1 then invalid_arg "Log_store.truncate_from: purged range";
  if from_index > last_index t then []
  else begin
    let removed = Vec.truncate_to t.entries from_index in
    let removed = List.filter_map (fun e -> e) removed in
    (t.last_cached <-
       (match Vec.get_opt t.entries (from_index - 1) with
       | Some (Some e) -> Entry.opid e
       | Some None -> t.purge_boundary (* tail now ends inside the purged range *)
       | None -> Opid.zero));
    List.iter
      (fun e ->
        match Entry.gtid e with
        | Some g -> t.gtids <- Gtid_set.remove t.gtids g
        | None -> ())
      removed;
    (* Rewind file ranges; drop files that became entirely empty except a
       single open file. *)
    let keep =
      List.filter_map
        (fun f ->
          if f.first = 0 || f.first >= from_index then None
          else begin
            if f.last >= from_index then begin
              f.last <- from_index - 1;
              f.closed <- false
            end;
            Some f
          end)
        t.files
    in
    set_files t (if keep = [] then [ fresh_file t ] else keep);
    t.current.closed <- false;
    t.synced_index <- min t.synced_index (from_index - 1);
    Obs.Metrics.incr t.m_truncations;
    Obs.Metrics.add t.m_entries_truncated (List.length removed);
    removed
  end

(* Close the current file and open a new one (FLUSH BINARY LOGS).  The
   rotate entry itself is replicated through Raft by the caller; this
   call only performs the local file switch. *)
let rotate t =
  t.current.closed <- true;
  Obs.Metrics.incr t.m_rotations;
  set_files t (t.files @ [ fresh_file t ])

(* SHOW BINARY LOGS view: (file name, size in bytes, entry count). *)
let file_list t =
  List.map
    (fun f ->
      let indices = if f.first = 0 then [] else List.init (f.last - f.first + 1) (fun i -> f.first + i) in
      let size =
        List.fold_left
          (fun acc i ->
            match Vec.get t.entries i with Some e -> acc + Entry.size e | None -> acc)
          0 indices
      in
      (f.file_name, size, List.length indices))
    t.files

let file_names t = List.map (fun f -> f.file_name) t.files

(* (name, first index, last index, closed) per file; first = 0 when the
   file has no entries yet. *)
let file_ranges t =
  List.map (fun f -> (f.file_name, f.first, f.last, f.closed)) t.files

(* PURGE LOGS TO <file>: drop whole files strictly older than [file].
   The caller (MySQL consulting Raft, §A.1) is responsible for ensuring
   the purged entries are consensus-committed and shipped. *)
let purge_to t ~file =
  if not (List.exists (fun f -> f.file_name = file) t.files) then
    invalid_arg ("Log_store.purge_to: unknown file " ^ file);
  let rec drop = function
    | f :: rest when f.file_name <> file ->
      if f.first > 0 then begin
        (match Vec.get t.entries f.last with
        | Some e -> t.purge_boundary <- Entry.opid e
        | None -> ());
        for i = f.first to f.last do
          Vec.set t.entries i None
        done;
        t.purged_below <- max t.purged_below (f.last + 1)
      end;
      drop rest
    | rest -> rest
  in
  set_files t (drop t.files)

let purged_below t = t.purged_below

(* OpId of the highest purged entry ([Opid.zero] if nothing purged). *)
let purge_boundary_opid t = t.purge_boundary

(* Rebase the store at a snapshot boundary (InstallSnapshot receipt).
   If the local log already holds the boundary entry with the matching
   term, only the prefix through the boundary is purged and the tail is
   retained (Raft's retain-following-entries rule); like [purge_to], the
   purged entries' GTIDs stay in the set (they live on in Previous-GTIDs
   headers), now unioned with the snapshot's.  Otherwise the whole log is
   discarded: the store becomes an empty log whose purge boundary is
   [last] and whose GTID set is the snapshot's.  Returns the conflicting
   tail entries that were dropped (ascending; [] in the retain case) so
   the embedder can clean up GTID metadata and fence its applier. *)
let install_snapshot t ~last ~gtids =
  let b = Opid.index last in
  if b <= 0 then invalid_arg "Log_store.install_snapshot: zero boundary";
  if b < t.purged_below - 1 then [] (* already purged past this snapshot *)
  else if term_at t b = Some (Opid.term last) then begin
    (* retain: purge [purged_below, b] in place *)
    for i = t.purged_below to min b (last_index t) do
      Vec.set t.entries i None
    done;
    let keep =
      List.filter_map
        (fun f ->
          if f.first > 0 && f.last <= b then None
          else begin
            if f.first > 0 && f.first <= b then f.first <- b + 1;
            Some f
          end)
        t.files
    in
    set_files t (if keep = [] then [ fresh_file t ] else keep);
    t.purged_below <- max t.purged_below (b + 1);
    if b >= Opid.index t.purge_boundary then t.purge_boundary <- last;
    if last_index t <= b then t.last_cached <- last;
    t.synced_index <- max t.synced_index b;
    t.gtids <- Gtid_set.union t.gtids gtids;
    []
  end
  else begin
    (* conflicting or missing boundary: drop the whole remaining log *)
    let removed =
      if last_index t >= t.purged_below then truncate_from t ~from_index:t.purged_below
      else []
    in
    while last_index t < b do
      Vec.push t.entries None
    done;
    t.purged_below <- b + 1;
    t.purge_boundary <- last;
    t.last_cached <- last;
    t.synced_index <- b (* the snapshot itself is durable *);
    t.gtids <- gtids;
    set_files t [ fresh_file t ];
    removed
  end

let gtid_set t = t.gtids

let fsync_count t = t.fsyncs

(* ----- durability / crash-recovery fault model ----- *)

let synced_index t = t.synced_index

let unsynced_count t = last_index t - t.synced_index

(* Flush the buffered tail (one batched fsync, like a stalled disk
   finally draining). *)
let sync t =
  if t.synced_index < last_index t then begin
    let batch = last_index t - t.synced_index in
    t.synced_index <- last_index t;
    t.fsyncs <- t.fsyncs + 1;
    Obs.Metrics.incr t.m_fsyncs;
    Obs.Metrics.record t.m_fsync_batch (float_of_int batch)
  end

(* Enter/leave the fsync-stall fault: while buffered, appends stay
   unsynced until [sync].  Leaving the mode flushes. *)
let set_buffered t buffered =
  t.buffered <- buffered;
  if not buffered then sync t

let buffered t = t.buffered

(* Group-commit: run [f] with appends buffered, then flush the whole
   tail with a single fsync — the sync_binlog group-commit optimisation
   applied to batches admitted in the same tick.  Nested inside an
   already-buffered scope (e.g. the chaos fsync-stall fault) it is a
   passthrough: the outer owner decides when to sync. *)
let with_batched_fsync t f =
  if t.buffered then f ()
  else begin
    t.buffered <- true;
    let finish () =
      t.buffered <- false;
      sync t
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      finish ();
      raise e
  end

(* Arm the torn-tail crash fault: the next [crash_recover_log] loses up
   to [max_lost] of the unsynced tail. *)
let set_torn_tail t ~max_lost = t.torn_tail_k <- max max_lost 0

(* Simulated restart of the log subsystem: the unsynced tail (bounded by
   the armed torn-tail budget) is gone, exactly as after a power loss
   with sync_binlog=0.  Returns the lost entries (ascending) so the
   embedder can clean up GTIDs; clears both fault modes. *)
let crash_recover_log t =
  let lose = min t.torn_tail_k (unsynced_count t) in
  let removed =
    if lose <= 0 then []
    else truncate_from t ~from_index:(last_index t - lose + 1)
  in
  t.buffered <- false;
  t.torn_tail_k <- 0;
  t.synced_index <- last_index t;
  removed

(* ----- disk-corruption fault + recovery scan ----- *)

(* Bit-rot the stored copy of [index] in place (the durable bytes, not
   any in-flight copy): a later [scan_for_corruption] must find it.
   False when the slot is absent (purged / beyond the tail). *)
let corrupt_entry t ~index ~flavor =
  match entry_at t index with
  | None -> false
  | Some e ->
    Vec.set t.entries index (Some (Entry.corrupt e flavor));
    Obs.Metrics.incr t.m_corruption_injected;
    true

type corruption_report = {
  cr_first_corrupt : int; (* index the scan truncated from *)
  cr_dropped : Entry.t list; (* everything truncated, ascending *)
  cr_detected : int; (* how many dropped entries failed their CRC *)
  cr_pre_truncation_tail : Opid.t; (* log tail before the truncate *)
}

(* Restart-time CRC sweep (mysqlbinlog-style verification of every event
   against its stored checksum): on the first mismatching entry, truncate
   it and everything after — the suffix beyond a corrupt entry cannot be
   trusted either — and report what was dropped.  The caller must treat
   the report as a possible loss of *acked* data: re-fetch through normal
   replication and fence votes below [cr_pre_truncation_tail] until the
   log is restored (a quorum that ignores entries this node helped commit
   must not form).  [None] means every stored entry verified. *)
let scan_for_corruption t =
  let rec find i =
    if i > last_index t then None
    else
      match Vec.get t.entries i with
      | Some e when not (Entry.verify e) -> Some i
      | _ -> find (i + 1)
  in
  match find 1 with
  | None -> None
  | Some first ->
    let tail = last_opid t in
    let dropped = truncate_from t ~from_index:first in
    let detected = List.length (List.filter (fun e -> not (Entry.verify e)) dropped) in
    Obs.Metrics.add t.m_corruption_detected detected;
    Obs.Metrics.add t.m_corruption_truncated (List.length dropped);
    Some
      {
        cr_first_corrupt = first;
        cr_dropped = dropped;
        cr_detected = detected;
        cr_pre_truncation_tail = tail;
      }

(* Rewire the log between binlog and relay-log personas (§3.2).  The
   entries are untouched — only the naming of future files changes, which
   is exactly what promotion's "rewiring" step does. *)
let switch_mode t new_mode =
  if t.mode <> new_mode then begin
    t.mode <- new_mode;
    if t.current.first = 0 then
      (* current file is empty: replace it so its name matches the mode *)
      set_files t
        (List.filteri (fun i _ -> i < List.length t.files - 1) t.files @ [ fresh_file t ])
    else rotate t
  end

let all_entries t =
  List.filter_map (fun e -> e) (Vec.to_list t.entries)

let describe t =
  Printf.sprintf "%s log: %d files, last=%s, gtids=%s"
    (mode_prefix t.mode) (List.length t.files)
    (Opid.to_string (last_opid t))
    (Gtid_set.to_string t.gtids)
