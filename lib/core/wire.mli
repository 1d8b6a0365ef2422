(** Everything that travels on a MyRaft replicaset's network: Raft RPCs
    between ring members, client write traffic to the primary, and
    client read traffic to any role. *)

type write_request = {
  write_id : int;
  table : string;
  ops : Binlog.Event.row_op list;
  client : Sim.Topology.node_id;
}

type write_outcome =
  | Committed of { gtid : Binlog.Gtid.t }
      (** the acknowledged transaction's GTID: the session token a
          client carries into [Read_your_writes] reads *)
  | Rejected of string  (** not primary / read-only / lock conflict *)

type read_request = {
  read_id : int;
  level : Read.Level.t;
  read_table : string;
  key : string;
  read_client : Sim.Topology.node_id;
}

type read_outcome = Read.Service.outcome =
  | Read_value of string option
  | Read_rejected of { reason : string; retry_after : float option }

type t =
  | Raft_msg of Raft.Message.t
  | Write_request of write_request
  | Write_reply of { write_id : int; outcome : write_outcome }
  | Read_request of read_request
  | Read_reply of { read_id : int; outcome : read_outcome }

(** Wire size in bytes for bandwidth accounting. *)
val size : t -> int
