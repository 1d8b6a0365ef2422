(** Engine-checkpoint snapshots for log compaction (InstallSnapshot).

    A snapshot pairs an opaque engine checkpoint with the metadata Raft
    needs to rebase a follower at the boundary: the
    (last_included_index, term) OpId, the covered GTID set, the
    membership config as of the boundary, and the writeset dependency
    epoch.  The checksum covers the payload so chunked transfers verify
    end-to-end before anything is restored. *)

type meta = {
  last : Binlog.Opid.t;  (** last included (index, term) *)
  gtids : Binlog.Gtid_set.t;  (** GTIDs covered by the checkpoint *)
  config : Types.config;  (** membership as of [last] *)
  cfg_id : Types.cfg_id;
      (** identity of [config]; adopted on install only if strictly
          newer than the restored node's own *)
  dep_epoch : int;  (** writeset dependency epoch (boundary index) *)
  checksum : int32;  (** digest of the payload *)
  total_bytes : int;
}

type t = { meta : meta; data : string }

(** [dep_epoch] is the boundary index; [cfg_id] defaults to
    {!Types.cfg_id_zero} (never adopted). *)
val make :
  ?cfg_id:Types.cfg_id ->
  last:Binlog.Opid.t ->
  gtids:Binlog.Gtid_set.t ->
  config:Types.config ->
  data:string ->
  unit ->
  t

val meta : t -> meta

val data : t -> string

val last : t -> Binlog.Opid.t

(** Payload size in bytes. *)
val size : t -> int

(** End-to-end integrity of a (possibly chunk-reassembled) payload. *)
val verify_data : meta -> string -> bool

val verify : t -> bool

(** The chunk starting at [offset], at most [max_bytes] long.  Raises
    [Invalid_argument] when [offset] is outside the payload. *)
val chunk : t -> offset:int -> max_bytes:int -> string

val describe : t -> string
