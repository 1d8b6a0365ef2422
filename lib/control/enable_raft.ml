(* enable-raft (§5.2): the rollout tool that converts a replicaset from
   semi-sync replication to MyRaft.

   The tool's five steps are reproduced: (1) hold the replicaset's
   distributed lock, (2) safety checks, (3) load the plugin + Raft
   configuration on every entity, (4) stop client writes, wait until all
   replicas are caught up and consistent, start the Raft bootstrap, and
   (5) publish the new primary to service discovery (done by promotion
   orchestration itself).  Only step 4-5 incur write unavailability —
   "usually a few seconds" — which this implementation measures and
   reports.

   The converted replicaset is materialised as a fresh [Myraft.Cluster]
   seeded with the semi-sync primary's binlog: every committed
   transaction is replayed into each member's log and engine before Raft
   boots, preserving GTIDs (the property §3 calls out as essential to the
   migration). *)

type report = {
  steps : (string * float) list; (* (step, duration in us) *)
  write_unavailability_us : float;
  transactions_migrated : int;
}

let s = Sim.Engine.s
let ms = Sim.Engine.ms

let seed_tailer_from_entries tailer entries =
  let log = Myraft.Logtailer.log tailer in
  List.iter (fun entry -> Binlog.Log_store.append log entry) entries

let run ?(params = Myraft.Params.default) ?(seed = 23) ~members ~lock_service
    (ss : Semisync.Cluster.t) =
  let steps = ref [] in
  let step name f =
    let t0 = Semisync.Cluster.now ss in
    let result = f () in
    steps := (name, Semisync.Cluster.now ss -. t0) :: !steps;
    result
  in
  (* Step 1: hold the distributed lock for the replicaset. *)
  let lock_ok = ref None in
  Lock_service.acquire lock_service ~name:(Semisync.Cluster.replicaset_name ss)
    ~owner:"enable-raft" (fun r -> lock_ok := Some r);
  ignore
    (Semisync.Cluster.run_until ss ~timeout:(5.0 *. s) (fun () -> !lock_ok <> None));
  match !lock_ok with
  | None -> Error "step 1 (lock): timeout"
  | Some (Error e) -> Error ("step 1 (lock): " ^ e)
  | Some (Ok ()) -> (
    (* Step 2: safety checks — refuse unhealthy replicasets. *)
    let healthy =
      step "safety-checks" (fun () ->
          Semisync.Cluster.run_for ss (100.0 *. ms);
          Semisync.Cluster.primary ss <> None
          && List.for_all
               (fun srv -> not (Semisync.Server.is_crashed srv))
               (Semisync.Cluster.servers ss))
    in
    if not healthy then Error "step 2 (safety): replicaset is not healthy"
    else begin
      let primary = Option.get (Semisync.Cluster.primary ss) in
      (* Step 3: load the plugin and Raft configuration on every entity
         (no write unavailability yet). *)
      step "load-plugin" (fun () ->
          Semisync.Cluster.run_for ss
            (float_of_int (List.length (Semisync.Cluster.member_ids ss)) *. 50.0 *. ms));
      (* Step 4: stop client writes, wait for all replicas to be caught
         up and consistent.  Unavailability starts here. *)
      let unavail_start = Semisync.Cluster.now ss in
      Semisync.Server.disable_writes primary;
      let caught_up () =
        Semisync.Server.pipeline_in_flight primary = 0
        && List.for_all
             (fun srv ->
               Semisync.Server.id srv = Semisync.Server.id primary
               || (Semisync.Server.last_seq srv = Semisync.Server.last_seq primary
                  && Semisync.Server.applied_seq srv = Semisync.Server.last_seq primary))
             (Semisync.Cluster.servers ss)
      in
      let ok =
        step "catch-up" (fun () ->
            Semisync.Cluster.run_until ss ~timeout:(30.0 *. s) caught_up)
      in
      if not ok then Error "step 4 (catch-up): replicas failed to converge"
      else begin
        let entries =
          List.filter Binlog.Entry.is_transaction
            (Binlog.Log_store.all_entries (Semisync.Server.log primary))
        in
        (* Raft bootstrap: build the MyRaft ring seeded with the migrated
           binlog, then elect the old primary. *)
        let cluster =
          Myraft.Cluster.create ~seed ~params
            ~replicaset:(Semisync.Cluster.replicaset_name ss) ~members ()
        in
        List.iter
          (fun srv -> Downstream.Backup.replay srv entries)
          (Myraft.Cluster.servers cluster);
        List.iter
          (fun tailer -> seed_tailer_from_entries tailer entries)
          (Myraft.Cluster.tailers cluster);
        let bootstrap_start = Myraft.Cluster.now cluster in
        Myraft.Cluster.bootstrap cluster ~leader_id:(Semisync.Server.id primary);
        let bootstrap_time = Myraft.Cluster.now cluster -. bootstrap_start in
        steps := ("raft-bootstrap", bootstrap_time) :: !steps;
        let write_unavailability_us =
          Semisync.Cluster.now ss -. unavail_start +. bootstrap_time
        in
        ignore
          (Lock_service.release lock_service
             ~name:(Semisync.Cluster.replicaset_name ss) ~owner:"enable-raft");
        Ok
          ( cluster,
            {
              steps = List.rev !steps;
              write_unavailability_us;
              transactions_migrated = List.length entries;
            } )
      end
    end)
