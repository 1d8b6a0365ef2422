(* Distributed lock service used by control-plane tools (enable-raft
   holds a replicaset lock so no other automation races it, §5.2). *)

type t = {
  engine : Sim.Engine.t;
  holders : (string, string) Hashtbl.t; (* lock name -> holder *)
}

let acquire_delay = 50.0 *. Sim.Engine.ms

let create engine = { engine; holders = Hashtbl.create 4 }

let holder t ~name = Hashtbl.find_opt t.holders name

(* Attempt to take the lock; calls [k] with the outcome after the
   acquisition round trip. *)
let acquire t ~name ~owner k =
  ignore
    (Sim.Engine.schedule t.engine ~delay:acquire_delay (fun () ->
         match Hashtbl.find_opt t.holders name with
         | Some existing when existing <> owner -> k (Error ("lock held by " ^ existing))
         | _ ->
           Hashtbl.replace t.holders name owner;
           k (Ok ())))

let release t ~name ~owner =
  match Hashtbl.find_opt t.holders name with
  | Some existing when existing = owner ->
    Hashtbl.remove t.holders name;
    Ok ()
  | Some existing -> Error ("lock held by " ^ existing)
  | None -> Ok ()
