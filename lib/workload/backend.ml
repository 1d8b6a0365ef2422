(* A workload backend abstracts "a replicaset a client can talk to" so
   the same generators drive both MyRaft and the semi-sync prior setup —
   the A/B methodology of §6.1, extended to mixed read/write traffic. *)

type read_outcome = Read.Service.outcome =
  | Read_value of string option
  | Read_rejected of { reason : string; retry_after : float option }

type t = {
  engine : Sim.Engine.t;
  label : string;
  (* Register a client node; [on_reply] is invoked per write reply
     ([gtid] carries the committed transaction's GTID, the session token
     for read-your-writes); [on_read_reply] per read reply. *)
  register_client :
    id:string ->
    region:string ->
    on_reply:(write_id:int -> ok:bool -> gtid:Binlog.Gtid.t option -> unit) ->
    on_read_reply:(read_id:int -> outcome:read_outcome -> unit) ->
    unit;
  (* Send one write; returns false when no primary is known. *)
  send_write :
    client:string -> write_id:int -> table:string -> ops:Binlog.Event.row_op list -> bool;
  (* Send one read to [target] (or the discovered primary when [None]);
     returns false when no target is known. *)
  send_read :
    client:string ->
    read_id:int ->
    level:Read.Level.t ->
    table:string ->
    key:string ->
    target:string option ->
    bool;
  (* Members that can serve reads (MySQL servers; log-only nodes can't). *)
  read_targets : unit -> string list;
  (* Pin the one-way latency between a client and every ring member. *)
  set_client_latency : client:string -> latency:float -> unit;
  member_ids : unit -> string list;
}

let myraft (cluster : Myraft.Cluster.t) =
  let primary () =
    Myraft.Service_discovery.primary_of (Myraft.Cluster.discovery cluster)
      ~replicaset:(Myraft.Cluster.replicaset_name cluster)
  in
  {
    engine = Myraft.Cluster.engine cluster;
    label = "MyRaft";
    register_client =
      (fun ~id ~region ~on_reply ~on_read_reply ->
        Myraft.Cluster.register_client cluster ~id ~region ~handler:(fun ~src:_ msg ->
            match msg with
            | Myraft.Wire.Write_reply { write_id; outcome } -> (
              match outcome with
              | Myraft.Wire.Committed { gtid } ->
                on_reply ~write_id ~ok:true ~gtid:(Some gtid)
              | Myraft.Wire.Rejected _ -> on_reply ~write_id ~ok:false ~gtid:None)
            | Myraft.Wire.Read_reply { read_id; outcome } -> on_read_reply ~read_id ~outcome
            | _ -> ()));
    send_write =
      (fun ~client ~write_id ~table ~ops ->
        match primary () with
        | None -> false
        | Some dst ->
          Myraft.Cluster.send_from_client cluster ~client ~dst
            (Myraft.Wire.Write_request { write_id; table; ops; client });
          true);
    send_read =
      (fun ~client ~read_id ~level ~table ~key ~target ->
        match (match target with Some _ -> target | None -> primary ()) with
        | None -> false
        | Some dst ->
          Myraft.Cluster.send_from_client cluster ~client ~dst
            (Myraft.Wire.Read_request
               { read_id; level; read_table = table; key; read_client = client });
          true);
    read_targets = (fun () -> Myraft.Cluster.mysql_ids cluster);
    set_client_latency =
      (fun ~client ~latency ->
        List.iter
          (fun member ->
            Myraft.Cluster.set_link_latency cluster ~a:client ~b:member ~latency)
          (Myraft.Cluster.member_ids cluster));
    member_ids = (fun () -> Myraft.Cluster.member_ids cluster);
  }

let semisync (cluster : Semisync.Cluster.t) =
  let primary () =
    Myraft.Service_discovery.primary_of (Semisync.Cluster.discovery cluster)
      ~replicaset:(Semisync.Cluster.replicaset_name cluster)
  in
  {
    engine = Semisync.Cluster.engine cluster;
    label = "Semi-Sync";
    register_client =
      (fun ~id ~region ~on_reply ~on_read_reply ->
        Semisync.Cluster.register_client cluster ~id ~region ~handler:(fun ~src:_ msg ->
            match msg with
            | Semisync.Wire.Write_reply { write_id; ok; gtid } ->
              on_reply ~write_id ~ok ~gtid
            | Semisync.Wire.Read_reply { read_id; value } ->
              let outcome =
                match value with
                | Ok v -> Read_value v
                | Error reason -> Read_rejected { reason; retry_after = None }
              in
              on_read_reply ~read_id ~outcome
            | _ -> ()));
    send_write =
      (fun ~client ~write_id ~table ~ops ->
        match primary () with
        | None -> false
        | Some dst ->
          Semisync.Cluster.send_from_client cluster ~client ~dst
            (Semisync.Wire.Write_request { write_id; table; ops; client });
          true);
    send_read =
      (fun ~client ~read_id ~level ~table ~key ~target ->
        match (match target with Some _ -> target | None -> primary ()) with
        | None -> false
        | Some dst ->
          Semisync.Cluster.send_from_client cluster ~client ~dst
            (Semisync.Wire.Read_request { read_id; level; table; key; client });
          true);
    read_targets = (fun () -> Semisync.Cluster.mysql_ids cluster);
    set_client_latency =
      (fun ~client ~latency ->
        List.iter
          (fun member ->
            Semisync.Cluster.set_link_latency cluster ~a:client ~b:member ~latency)
          (Semisync.Cluster.member_ids cluster));
    member_ids = (fun () -> Semisync.Cluster.member_ids cluster);
  }
