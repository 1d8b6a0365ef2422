(** The MySQL replication log, usable as Raft's replicated log.

    A store is a sequence of log files plus an index file.  It runs in
    [Binlog] mode (a primary writing its binary log) or [Relay] mode (a
    replica's relay log fed by Raft); switching between the two —
    "rewiring" — is a promotion/demotion orchestration step (§3.2).

    Invariants: the entry at Raft index i lives at slot i; file ranges
    partition the unpurged index space; terms are non-decreasing. *)

type mode = Binlog | Relay

type t

(** [metrics] receives the binlog.* counters (appends, bytes_appended,
    fsyncs, truncations, entries_truncated, rotations) and the
    [binlog.fsync_batch_entries] histogram. *)
val create : ?metrics:Obs.Metrics.t -> ?mode:mode -> unit -> t

val mode : t -> mode

val last_index : t -> int

(** [Opid.zero] when empty. *)
val last_opid : t -> Opid.t

(** [None] for out-of-range or purged indexes. *)
val entry_at : t -> int -> Entry.t option

(** The entry every empty slot holds.  Compare with [==]: it is never
    appended, so no stored entry is physically equal to it. *)
val absent : Entry.t

(** {!entry_at} without the option, for per-entry readers: {!absent} for
    out-of-range or purged indexes.  Allocates nothing. *)
val slot : t -> int -> Entry.t

(** Term at an index; [Some 0] at index 0, [None] when unknown/purged. *)
val term_at : t -> int -> int option

(** [term_at] without the option, for per-entry callers: [-1] when
    unknown or purged. *)
val term_of : t -> int -> int

(** Append the next entry.  Raises [Invalid_argument] on index gaps or
    term regressions. *)
val append : t -> Entry.t -> unit

(** Present entries in [from_index, from_index+max_count); stops early at
    a purged hole. *)
val entries_from : t -> from_index:int -> max_count:int -> Entry.t list

(** Present entries in [from_index, from_index+max_count) as one
    right-sized array; stops early at the tail or a purged hole.
    [max_bytes] bounds the total payload: collection stops before the
    entry that would exceed it, but the first entry always ships so an
    oversized transaction still progresses ([max_int] for no budget).
    The array holds the entries themselves, so it stays valid whatever
    the log truncates or purges afterwards. *)
val read_slice : t -> max_bytes:int -> from_index:int -> max_count:int -> Entry.t array

(** Remove all entries with index >= [from_index]; returns them
    (ascending) so callers can clean up GTID metadata (§3.3 step 4). *)
val truncate_from : t -> from_index:int -> Entry.t list

(** Close the current file and open a new one (FLUSH BINARY LOGS). *)
val rotate : t -> unit

(** SHOW BINARY LOGS view: (file name, byte size, entry count). *)
val file_list : t -> (string * int * int) list

val file_names : t -> string list

(** (name, first index, last index, closed) per file; first = 0 when the
    file has no entries yet. *)
val file_ranges : t -> (string * int * int * bool) list

(** PURGE LOGS TO [file]: drop whole files strictly older than [file].
    The caller is responsible for the §A.1 safety heuristics. *)
val purge_to : t -> file:string -> unit

(** Entries below this index may have been purged, so a Raft leader has
    no AppendEntries prev anchor below it minus one (the boundary's own
    term stays answerable). *)
val purged_below : t -> int

(** OpId of the highest purged entry — the snapshot-style boundary whose
    term stays answerable through {!term_at}. *)
val purge_boundary_opid : t -> Opid.t

(** Rebase the store at a snapshot boundary (InstallSnapshot receipt).
    If the boundary entry is already present with the matching term, the
    prefix through it is purged in place and the tail retained;
    otherwise the whole log is discarded and the store becomes an empty
    log whose purge boundary is [last] and GTID set is [gtids].  Returns
    the dropped conflicting tail (ascending; [] in the retain case).
    Raises [Invalid_argument] on a zero boundary. *)
val install_snapshot : t -> last:Opid.t -> gtids:Gtid_set.t -> Entry.t list

(** All GTIDs currently present in the log. *)
val gtid_set : t -> Gtid_set.t

(** {2 Durability / crash-recovery fault model}

    Normally every append fsyncs (sync_binlog=1) and {!synced_index}
    tracks the tail.  Chaos runs flip the store into buffered mode (an
    fsync stall) and arm a torn-tail budget; {!crash_recover_log} then
    models the post-power-loss restart that loses the unsynced tail —
    the situation §3.3's demotion truncation must cope with. *)

(** Highest index known durable (= [last_index] unless buffered).  Raft
    acknowledges replication, and counts its own vote toward commit, only
    up to here, so a crash that tears off the unsynced tail never loses
    an acked entry. *)
val synced_index : t -> int

val unsynced_count : t -> int

(** Enter/leave the fsync-stall fault; leaving flushes. *)
val set_buffered : t -> bool -> unit

val buffered : t -> bool

(** Group-commit: run [f] with appends buffered, then flush the whole
    tail with a single fsync.  Passthrough when the store is already
    buffered (the outer owner syncs). *)
val with_batched_fsync : t -> (unit -> 'a) -> 'a

(** Arm the torn-tail crash fault: the next {!crash_recover_log} loses
    up to [max_lost] of the unsynced tail. *)
val set_torn_tail : t -> max_lost:int -> unit

(** Simulated log-subsystem restart: drops the unsynced tail bounded by
    the armed torn-tail budget, returns the lost entries (ascending) and
    clears both fault modes.  A no-op [[]] on a healthy store. *)
val crash_recover_log : t -> Entry.t list

(** {2 Disk-corruption fault + recovery scan}

    Unlike the torn tail (which only ever loses {e unacked} data), bit
    rot can hit entries Raft already counted toward commit — recovery
    must detect it by CRC and report the loss so the embedder can
    re-fetch through replication and fence elections meanwhile. *)

(** Bit-rot the stored copy of [index] in place ({!Entry.corrupt});
    false when the slot is absent (purged / beyond the tail).  Counted
    in [binlog.corruption_injected]. *)
val corrupt_entry : t -> index:int -> flavor:Entry.corruption -> bool

type corruption_report = {
  cr_first_corrupt : int;  (** index the scan truncated from *)
  cr_dropped : Entry.t list;  (** everything truncated, ascending *)
  cr_detected : int;  (** dropped entries that failed their CRC *)
  cr_pre_truncation_tail : Opid.t;  (** log tail before the truncate *)
}

(** Restart-time CRC sweep over every stored entry: on the first
    mismatch, truncate from it (the suffix beyond a corrupt entry is
    untrustworthy) and report.  The caller must treat the report as
    possible loss of acked data: re-fetch via replication and hold votes
    below [cr_pre_truncation_tail] until restored (the Raft node's vote
    floor).  [None] = clean.  Counted in
    [binlog.corruption_detected] / [binlog.corruption_truncated]. *)
val scan_for_corruption : t -> corruption_report option

(** Rewire between binlog and relay-log personas (§3.2); entries are
    untouched, only future file naming changes. *)
val switch_mode : t -> mode -> unit

val all_entries : t -> Entry.t list

val describe : t -> string
