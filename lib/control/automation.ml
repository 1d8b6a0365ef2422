(* Membership automation (§2.2): "membership changes are always initiated
   by automation" — allocate and prepare a member's replacement, then let
   {!Reconfig.Healer.apply_target} drive the swap on the leader one
   planned step at a time. *)

type replacement_report = {
  removed : string;
  added : string;
  duration_us : float;
}

let s = Sim.Engine.s

let leader_raft cluster =
  match Myraft.Cluster.raft_leader cluster with
  | Some id -> Myraft.Cluster.raft_of cluster id
  | None -> None

(* §A.1's external rotation automation: watch the primary's current
   binlog file size in a monitoring loop and call FLUSH BINARY LOGS when
   it exceeds the budget; opportunistically PURGE files that Raft's
   region watermarks have cleared, keeping at most [keep_files]. *)
type janitor = { mutable running : bool; mutable rotations : int; mutable purges : int }

let rotations j = j.rotations

let purges j = j.purges

let stop_janitor j = j.running <- false

let current_file_bytes server =
  match List.rev (Binlog.Log_store.file_list (Myraft.Server.log server)) with
  | (_, size, _) :: _ -> size
  | [] -> 0

let start_binlog_janitor ?(interval = 2.0 *. s) ?(keep_files = 3) cluster =
  let j = { running = true; rotations = 0; purges = 0 } in
  let engine = Myraft.Cluster.engine cluster in
  let rec tick () =
    if j.running then begin
      (match Myraft.Cluster.primary cluster with
      | Some primary ->
        let budget = (Myraft.Cluster.params cluster).Myraft.Params.max_binlog_bytes in
        if current_file_bytes primary > budget then (
          match Myraft.Server.flush_binary_logs primary with
          | Ok () -> j.rotations <- j.rotations + 1
          | Error _ -> ());
        if
          List.length (Binlog.Log_store.file_names (Myraft.Server.log primary))
          > keep_files
        then begin
          let purged = Myraft.Server.purge_binary_logs primary in
          if purged > 0 then j.purges <- j.purges + purged
        end
      | None -> ());
      ignore (Sim.Engine.schedule engine ~delay:interval tick)
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:interval tick);
  j

(* Replace [dead] with a freshly allocated member of the same kind and
   region: provision the newcomer (optionally seeding it from a backup —
   required when the history it needs has been purged from the ring),
   then hand the swap to the planner-driven executor, which adds it as a
   learner, promotes it after catch-up when the corpse was a voter, and
   only then demotes and removes the corpse.  The ring never has fewer
   voters mid-swap than it started with. *)
let replace_member ?backup cluster ~dead ~replacement_id =
  let started = Myraft.Cluster.now cluster in
  match leader_raft cluster with
  | None -> Error "no leader to drive the membership change"
  | Some leader -> (
    let current = Raft.Node.config leader in
    match Raft.Types.find_member current dead with
    | None -> Error (dead ^ " is not a member")
    | Some _ when Myraft.Cluster.node cluster replacement_id <> None ->
      Error (replacement_id ^ " already exists")
    | Some old_member -> (
      let newcomer = { old_member with Raft.Types.id = replacement_id } in
      Reconfig.Healer.provision cluster newcomer;
      let seeded =
        match backup with
        | None -> Ok ()
        | Some b -> (
          match Myraft.Cluster.server cluster replacement_id with
          | Some srv -> Downstream.Backup.restore_into_server b srv
          | None -> (
            match Myraft.Cluster.tailer cluster replacement_id with
            | Some lt -> Downstream.Backup.restore_into_tailer b lt
            | None -> Error "replacement node vanished"))
      in
      match seeded with
      | Error e -> Error ("backup restore: " ^ e)
      | Ok () -> (
        let target =
          {
            Raft.Types.members =
              List.map
                (fun m -> if m.Raft.Types.id = dead then newcomer else m)
                (Raft.Types.config_members current);
          }
        in
        Reconfig.Healer.apply_target cluster ~target
        |> Result.map (fun _ ->
               {
                 removed = dead;
                 added = replacement_id;
                 duration_us = Myraft.Cluster.now cluster -. started;
               }))))
