(* A semi-sync acker: the prior-setup role of the in-region logtailer
   (Table 1).  It tails the primary's binlog into a local log and
   acknowledges receipt; the primary's commit pipeline waits for the
   first acker acknowledgement. *)

type t = {
  id : string;
  region : string;
  engine : Sim.Engine.t;
  trace : Sim.Trace.t;
  send : dst:string -> Wire.t -> unit;
  log : Binlog.Log_store.t;
  mutable upstream : string option;
  mutable crashed : bool;
}

let id t = t.id

let log t = t.log

let is_crashed t = t.crashed

let last_seq t = Binlog.Opid.index (Binlog.Log_store.last_opid t.log)

let create ~engine ~id ~region ~send ~trace () =
  {
    id;
    region;
    engine;
    trace;
    send;
    log = Binlog.Log_store.create ~mode:Binlog.Log_store.Relay ();
    upstream = None;
    crashed = false;
  }

let repoint t ~new_upstream = t.upstream <- Some new_upstream

let handle_message t ~src msg =
  if not t.crashed then
    match msg with
    | Wire.Replicate { entries } ->
      if t.upstream = Some src then begin
        List.iter
          (fun entry ->
            let index = Binlog.Entry.index entry in
            if index = last_seq t + 1 then Binlog.Log_store.append t.log entry
            else if index <= last_seq t then begin
              (* After a failover the acker may be ahead of the new
                 primary (it acked entries that never committed); follow
                 the new stream by truncating the divergent tail — ackers
                 hold no database, only a disposable log. *)
              match Binlog.Log_store.entry_at t.log index with
              | Some existing
                when not (Binlog.Opid.equal (Binlog.Entry.opid existing) (Binlog.Entry.opid entry))
                     || not (Int32.equal (Binlog.Entry.checksum existing) (Binlog.Entry.checksum entry)) ->
                ignore (Binlog.Log_store.truncate_from t.log ~from_index:index);
                Binlog.Log_store.append t.log entry
              | _ -> ()
            end)
          entries;
        t.send ~dst:src (Wire.Ack { seq = last_seq t; from_acker = true })
      end
    | Wire.Ping { ping_id } -> t.send ~dst:src (Wire.Pong { ping_id })
    | Wire.Ack _ | Wire.Write_request _ | Wire.Write_reply _ | Wire.Read_request _
    | Wire.Read_reply _ | Wire.Pong _ ->
      ()

let crash t =
  t.crashed <- true;
  Sim.Trace.record t.trace ~tag:"semisync" "%s: acker CRASHED" t.id

let restart t = t.crashed <- false
