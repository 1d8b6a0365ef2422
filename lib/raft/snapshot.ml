(* Engine-checkpoint snapshots for log compaction (InstallSnapshot).

   A snapshot is an opaque engine checkpoint ([data], produced by the
   embedder — for a MySQL server, [Storage.Engine.encode_checkpoint])
   plus the metadata Raft needs to rebase a follower at the boundary:
   the (last_included_index, term) OpId, the GTID set the checkpoint
   covers, the membership config as of the boundary (the follower's log
   prefix — including any config entries in it — vanishes on install),
   and the writeset dependency epoch (the boundary index: a restored
   applier may treat every dependency at or below it as satisfied, the
   same fence a term-opening no-op provides).

   The checksum covers [data] so a transfer reassembled from chunks is
   verified end-to-end before anything is restored. *)

type meta = {
  last : Binlog.Opid.t; (* last included (index, term) *)
  gtids : Binlog.Gtid_set.t; (* GTIDs covered by the checkpoint *)
  config : Types.config; (* membership as of [last] *)
  cfg_id : Types.cfg_id;
    (* identity of [config] (logless reconfiguration): the restored
       node adopts it only when strictly newer than what it holds *)
  dep_epoch : int; (* writeset dependency epoch (boundary index) *)
  checksum : int32; (* digest of [data] *)
  total_bytes : int;
}

type t = { meta : meta; data : string }

let make ?(cfg_id = Types.cfg_id_zero) ~last ~gtids ~config ~data () =
  {
    meta =
      {
        last;
        gtids;
        config;
        cfg_id;
        dep_epoch = Binlog.Opid.index last;
        checksum = Binlog.Checksum.string data;
        total_bytes = String.length data;
      };
    data;
  }

let meta t = t.meta

let data t = t.data

let last t = t.meta.last

let size t = String.length t.data

(* End-to-end integrity of a (possibly chunk-reassembled) payload
   against the advertised metadata. *)
let verify_data meta data =
  String.length data = meta.total_bytes && Binlog.Checksum.string data = meta.checksum

let verify t = verify_data t.meta t.data

(* The chunk starting at [offset], at most [max_bytes] long. *)
let chunk t ~offset ~max_bytes =
  if offset < 0 || offset > size t then invalid_arg "Snapshot.chunk: offset out of range";
  String.sub t.data offset (min max_bytes (size t - offset))

let describe t =
  Printf.sprintf "snapshot(last %s, %d bytes, %d gtids, epoch %d)"
    (Binlog.Opid.to_string t.meta.last)
    t.meta.total_bytes
    (Binlog.Gtid_set.cardinal t.meta.gtids)
    t.meta.dep_epoch
