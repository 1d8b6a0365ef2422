(** A workload backend abstracts "a replicaset a client can talk to" so
    the same generators drive MyRaft and the semi-sync prior setup — the
    A/B methodology of §6.1, extended to mixed read/write traffic. *)

type read_outcome = Read.Service.outcome =
  | Read_value of string option
  | Read_rejected of { reason : string; retry_after : float option }

type t = {
  engine : Sim.Engine.t;
  label : string;
  register_client :
    id:string ->
    region:string ->
    on_reply:(write_id:int -> ok:bool -> gtid:Binlog.Gtid.t option -> unit) ->
    on_read_reply:(read_id:int -> outcome:read_outcome -> unit) ->
    unit;
  send_write :
    client:string -> write_id:int -> table:string -> ops:Binlog.Event.row_op list -> bool;
  send_read :
    client:string ->
    read_id:int ->
    level:Read.Level.t ->
    table:string ->
    key:string ->
    target:string option ->
    bool;
  read_targets : unit -> string list;
  set_client_latency : client:string -> latency:float -> unit;
  member_ids : unit -> string list;
}

val myraft : Myraft.Cluster.t -> t

val semisync : Semisync.Cluster.t -> t
