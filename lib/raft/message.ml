(* Raft RPCs, including the proxying extensions of §4.2.

   [Proxied] wraps any message with the remaining hop list: a node
   receiving [Proxied { next_hops = [d]; inner }] is the final proxy for
   [inner] and must deliver it to [d] — reconstituting the payload from
   its own log when the inner AppendEntries carries [Refs] instead of
   entry bodies (PROXY_OP).  Responses travel the reverse route carried in
   [reply_route]. *)

type node_id = Types.node_id

type ae_payload =
  | Entries of Binlog.Entry.t array
    (* an array, not a list: the leader assembles each batch as one
       right-sized slice of its log (Log_store.read_slice, no per-entry
       cells), and receivers index it directly *)
  | Refs of { first_index : int; last_index : int; last_term : int }
    (* PROXY_OP: metadata only; [last_term] lets the proxy verify its local
       copy matches the leader's view before reconstituting *)

type append_entries = {
  term : int;
  leader_id : node_id;
  leader_region : string;
  prev_opid : Binlog.Opid.t;
  payload : ae_payload;
  commit_index : int;
  seq : int; (* per-peer send sequence; echoed in the response *)
  reply_route : node_id list; (* hops the response retraces to the leader *)
  leader_time : float;
    (* leader clock at send; the follower's staleness anchor for
       bounded-staleness reads once its log covers [leader_last_index] *)
  leader_last_index : int; (* leader log tail at send *)
  cfg_id : Types.cfg_id;
    (* identity of the leader's current config (logless reconfiguration):
       always carried, so a follower can tell it is stale even when the
       membership body was elided *)
  cfg : Types.config option;
    (* the membership body, gossiped only while the leader has not yet
       seen this peer acknowledge [cfg_id]; a follower adopts it iff
       [cfg_id] is strictly newer than its own *)
}

type append_response = {
  term : int;
  from : node_id;
  success : bool;
  last_log_index : int;
    (* the durable (fsynced) prefix on success — the ack the leader may
       count toward commit; the probe hint on failure *)
  last_appended_index : int;
    (* follower's log tail after processing, regardless of fsync.  Lets
       the leader distinguish "appended but not yet durable" (fsync
       stall) from "never arrived" (degraded PROXY_OP / loss), which is
       what decides whether a windowed send must be replayed. *)
  request_seq : int; (* the [seq] of the AppendEntries being answered *)
  cfg_id : Types.cfg_id;
    (* identity of the config installed on the responder; the leader
       stops attaching the membership body once this catches up *)
  follower_time : float;
    (* follower clock at reply; the leader cross-checks its own clock's
       rate against these (a leader whose oscillator drifts relative to
       its quorum must not trust lease intervals it measured itself) *)
}

type vote_phase = Pre | Real | Mock of { snapshot : Binlog.Opid.t }

type request_vote = {
  term : int; (* proposed term for Pre/Mock, actual for Real *)
  candidate : node_id;
  candidate_region : string;
  last_opid : Binlog.Opid.t;
  phase : vote_phase;
  (* FlexiRaft voting history: the highest constraint term the candidate
     knows (max of its authoritative last-leader term and its granted-vote
     term).  A voter holding a higher-term constraint denies the vote and
     ships its constraints back, so a candidate can never win an election
     whose quorum fails to cover a region that may hold committed data. *)
  candidate_constraint_term : int;
  (* True only for elections started by a TimeoutNow from the current
     leader (leadership transfer / logtailer handoff).  Such elections
     may bypass voter leader-stickiness: the initiating leader has
     already voided its own lease, so an immediate successor cannot
     enable a stale lease read.  Any other Real election — including a
     disruptive forced one — must wait out the stickiness window, which
     outlasts every lease the deposed leader could still hold. *)
  transfer : bool;
  cfg_id : Types.cfg_id;
    (* identity of the candidate's installed config: a voter holding a
       strictly newer config denies the vote (logless reconfiguration
       election restriction) and ships its config back *)
}

type vote_response = {
  term : int;
  from : node_id;
  granted : bool;
  phase : vote_phase;
  (* FlexiRaft hints: the most recent authoritative leader this voter
     knows of, and the highest-term candidate it has granted a vote to —
     both feed the candidate's intersection-region computation. *)
  last_known_leader : (int * string) option;
  vote_constraint : (int * string) option;
  cfg : (Types.cfg_id * Types.config) option;
    (* carried when the voter's installed config is strictly newer than
       the candidate's: lets a stale candidate adopt it immediately
       (and, if no longer a voter, stand down) instead of waiting for
       leader gossip *)
}

(* One chunk of a snapshot transfer (InstallSnapshot).  The full
   metadata rides on every chunk — it is small next to the payload and
   makes the stop-and-wait transfer resumable from any chunk: a follower
   that lost the transfer state acks [received_through = 0] and the
   leader restarts from there. *)
type install_snapshot = {
  term : int;
  leader_id : node_id;
  snapshot_id : int; (* leader-unique transfer id *)
  meta : Snapshot.meta; (* boundary OpId, GTIDs, config, checksum, size *)
  offset : int; (* byte offset of this chunk within the payload *)
  chunk : string;
}

type install_snapshot_response = {
  term : int;
  from : node_id;
  snapshot_id : int;
  received_through : int;
    (* contiguous payload bytes the follower now holds; equal to the
       payload size once the install has been applied *)
  success : bool; (* false aborts the transfer (checksum failure etc.) *)
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
  | Read_index_reply of { rid : int; index : int; error : string option }
  | Install_snapshot of install_snapshot
  | Install_snapshot_response of install_snapshot_response
  | Proxied of { next_hops : node_id list; inner : t }

(* Wire sizes in bytes, used for the §4.2.2 bandwidth accounting.  Header
   overhead matches the paper's back-of-the-envelope framing (tens of
   bytes of metadata per RPC, ~500 byte average data payloads). *)
let rec size = function
  | Append_entries ae ->
    let payload_size =
      match ae.payload with
      | Entries entries ->
        Array.fold_left (fun acc e -> acc + Binlog.Entry.size e) 0 entries
      | Refs _ -> 12
    in
    let cfg_size =
      match ae.cfg with None -> 0 | Some c -> Types.config_wire_size c
    in
    60 + (4 * List.length ae.reply_route) + payload_size + cfg_size
  | Append_entries_response _ -> 44
  | Request_vote _ -> 56
  | Request_vote_response vr ->
    44
    + (match vr.cfg with None -> 0 | Some (_, c) -> 8 + Types.config_wire_size c)
  | Timeout_now _ -> 16
  | Run_mock_election _ -> 32
  | Mock_election_result _ -> 24
  | Read_index_request _ -> 20
  | Read_index_reply _ -> 24
  | Install_snapshot is -> 64 + String.length is.chunk
  | Install_snapshot_response _ -> 28
  | Proxied { next_hops; inner } -> 16 + (4 * List.length next_hops) + size inner

let phase_to_string = function
  | Pre -> "pre"
  | Real -> "real"
  | Mock _ -> "mock"

let rec describe = function
  | Append_entries ae ->
    let payload =
      match ae.payload with
      | Entries [||] -> "heartbeat"
      | Entries es -> Printf.sprintf "%d entries" (Array.length es)
      | Refs { first_index; last_index; _ } ->
        Printf.sprintf "PROXY_OP %d..%d" first_index last_index
    in
    Printf.sprintf "AE(t%d from %s, prev %s, %s, commit %d, cfg %s%s)" ae.term
      ae.leader_id
      (Binlog.Opid.to_string ae.prev_opid) payload ae.commit_index
      (Types.cfg_id_to_string ae.cfg_id)
      (match ae.cfg with None -> "" | Some _ -> "+body")
  | Append_entries_response r ->
    Printf.sprintf "AE-resp(t%d from %s, %s, last %d)" r.term r.from
      (if r.success then "ok" else "fail")
      r.last_log_index
  | Request_vote rv ->
    Printf.sprintf "Vote-req(%s%s, t%d, %s, last %s)" (phase_to_string rv.phase)
      (if rv.transfer then "/transfer" else "")
      rv.term rv.candidate
      (Binlog.Opid.to_string rv.last_opid)
  | Request_vote_response vr ->
    Printf.sprintf "Vote-resp(%s, t%d from %s, %s)" (phase_to_string vr.phase) vr.term
      vr.from
      (if vr.granted then "granted" else "denied")
  | Timeout_now { term } -> Printf.sprintf "TimeoutNow(t%d)" term
  | Run_mock_election { term; _ } -> Printf.sprintf "RunMockElection(t%d)" term
  | Mock_election_result { ok; _ } ->
    Printf.sprintf "MockResult(%s)" (if ok then "ok" else "failed")
  | Read_index_request { rid; from } -> Printf.sprintf "ReadIndex-req(#%d from %s)" rid from
  | Read_index_reply { rid; index; error } ->
    Printf.sprintf "ReadIndex-reply(#%d, %s)" rid
      (match error with Some e -> "error: " ^ e | None -> Printf.sprintf "index %d" index)
  | Install_snapshot is ->
    Printf.sprintf "InstallSnapshot(t%d from %s, #%d, last %s, bytes %d..%d/%d)" is.term
      is.leader_id is.snapshot_id
      (Binlog.Opid.to_string is.meta.Snapshot.last)
      is.offset
      (is.offset + String.length is.chunk)
      is.meta.Snapshot.total_bytes
  | Install_snapshot_response r ->
    Printf.sprintf "InstallSnapshot-resp(t%d from %s, #%d, through %d, %s)" r.term r.from
      r.snapshot_id r.received_through
      (if r.success then "ok" else "abort")
  | Proxied { next_hops; inner } ->
    Printf.sprintf "Proxied(via %s: %s)" (String.concat "," next_hops) (describe inner)
