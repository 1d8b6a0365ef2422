(** Raft RPCs, including the proxying extensions of §4.2.

    [Proxied] wraps any message with the remaining hop list: the final
    proxy reconstitutes [Refs] payloads (PROXY_OPs) from its own log
    before delivery; responses retrace [reply_route]. *)

type node_id = Types.node_id

type ae_payload =
  | Entries of Binlog.Entry.t array
      (** assembled as one right-sized slice of the leader's log
          ({!Binlog.Log_store.read_slice}) *)
  | Refs of { first_index : int; last_index : int; last_term : int }
      (** PROXY_OP: metadata only; [last_term] lets the proxy verify its
          local copy matches the leader's view before reconstituting *)

type append_entries = {
  term : int;
  leader_id : node_id;
  leader_region : string;
  prev_opid : Binlog.Opid.t;
  payload : ae_payload;
  commit_index : int;
  seq : int;  (** per-peer send sequence; echoed in the response *)
  reply_route : node_id list;  (** hops the response retraces to the leader *)
  leader_time : float;
      (** leader clock at send — the follower's staleness anchor for
          bounded-staleness reads once its log covers [leader_last_index] *)
  leader_last_index : int;  (** leader log tail at send *)
  cfg_id : Types.cfg_id;
      (** identity of the leader's current config (logless
          reconfiguration) — always carried *)
  cfg : Types.config option;
      (** membership body, attached only while the leader has not seen
          this peer acknowledge [cfg_id]; adopted iff strictly newer *)
}

type append_response = {
  term : int;
  from : node_id;
  success : bool;
  last_log_index : int;
      (** durable (fsynced) prefix on success — the commit-countable ack;
          probe hint on failure *)
  last_appended_index : int;
      (** log tail after processing regardless of fsync: distinguishes
          "appended, sync pending" from "never arrived" for the leader's
          send-window bookkeeping *)
  request_seq : int;  (** the [seq] of the AppendEntries being answered *)
  cfg_id : Types.cfg_id;
      (** config installed on the responder; gates further gossip *)
  follower_time : float;
      (** follower clock at reply — the leader's cross-check that its own
          clock's rate agrees with its quorum's before trusting a lease *)
}

type vote_phase = Pre | Real | Mock of { snapshot : Binlog.Opid.t }

type request_vote = {
  term : int;
  candidate : node_id;
  candidate_region : string;
  last_opid : Binlog.Opid.t;
  phase : vote_phase;
  candidate_constraint_term : int;
      (** FlexiRaft voting history: the highest constraint term the
          candidate knows; staler-than-voter candidates are denied *)
  transfer : bool;
      (** started by the leader's TimeoutNow (leadership transfer):
          exempt from voter leader-stickiness, because the initiating
          leader already voided its own lease *)
  cfg_id : Types.cfg_id;
      (** candidate's installed config; voters with strictly newer
          configs deny the vote (logless election restriction) *)
}

type vote_response = {
  term : int;
  from : node_id;
  granted : bool;
  phase : vote_phase;
  last_known_leader : (int * string) option;
  vote_constraint : (int * string) option;
  cfg : (Types.cfg_id * Types.config) option;
      (** the voter's config when strictly newer than the candidate's,
          so a stale candidate adopts it without waiting for gossip *)
}

(** One chunk of a snapshot transfer (InstallSnapshot).  The metadata
    rides on every chunk, so the stop-and-wait transfer is resumable
    from any offset a follower acks. *)
type install_snapshot = {
  term : int;
  leader_id : node_id;
  snapshot_id : int;  (** leader-unique transfer id *)
  meta : Snapshot.meta;
  offset : int;  (** byte offset of this chunk within the payload *)
  chunk : string;
}

type install_snapshot_response = {
  term : int;
  from : node_id;
  snapshot_id : int;
  received_through : int;
      (** contiguous payload bytes held; the payload size once the
          install has been applied *)
  success : bool;  (** false aborts the transfer (checksum failure etc.) *)
}

type t =
  | Append_entries of append_entries
  | Append_entries_response of append_response
  | Request_vote of request_vote
  | Request_vote_response of vote_response
  | Timeout_now of { term : int }
  | Run_mock_election of { term : int; snapshot : Binlog.Opid.t; requester : node_id }
  | Mock_election_result of { ok : bool; target : node_id; votes : int }
  | Read_index_request of { rid : int; from : node_id }
      (** follower → leader: run a ReadIndex round on my behalf *)
  | Read_index_reply of { rid : int; index : int; error : string option }
      (** leader → follower: the confirmed read index (or why not) *)
  | Install_snapshot of install_snapshot
  | Install_snapshot_response of install_snapshot_response
  | Proxied of { next_hops : node_id list; inner : t }

(** Wire size in bytes for bandwidth accounting (§4.2.2). *)
val size : t -> int

val phase_to_string : vote_phase -> string

val describe : t -> string
