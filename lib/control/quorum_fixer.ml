(* Quorum Fixer (§5.3): restores write availability after a "shattered
   quorum" — when a majority of the (small, FlexiRaft) data-commit quorum
   is unhealthy and no leader can win a normal election.

   Procedure, as in the paper:
   1. query the attempted writes / health of the ring (out-of-band);
   2. find the healthy entity with the longest log — it must become the
      leader (leader completeness by hand);
   3. forcibly relax the leader-election quorum on that entity and
      trigger an election it can win with its own vote;
   4. once it has been promoted, reset the quorum expectations.

   It is conservative: it refuses to act when a leader still exists or
   when no healthy voter can be found. *)

type report = {
  chosen : string;
  chosen_last_opid : Binlog.Opid.t;
  healthy_members : int;
  duration_us : float;
}

let ms = Sim.Engine.ms

(* Longest-log rule across healthy members. *)
let find_longest_log cluster =
  let candidates =
    List.filter_map
      (fun id ->
        if Myraft.Cluster.is_crashed cluster id then None
        else
          match Myraft.Cluster.raft_of cluster id with
          | Some r when Raft.Node.is_voter r -> Some (Raft.Node.last_opid r, id)
          | _ -> None)
      (Myraft.Cluster.member_ids cluster)
  in
  match
    List.sort (fun (a, _) (b, _) -> Binlog.Opid.compare b a) candidates
  with
  | (opid, id) :: _ -> Some (id, opid, List.length candidates)
  | [] -> None

let run cluster =
  let timeout = 30.0 *. Sim.Engine.s in
  let started = Myraft.Cluster.now cluster in
  (* Step 1: out-of-band health sweep (one RPC per member). *)
  Myraft.Cluster.run_for cluster
    (float_of_int (List.length (Myraft.Cluster.member_ids cluster)) *. 20.0 *. ms);
  if Myraft.Cluster.raft_leader cluster <> None then
    Error "conservative mode: a leader already exists"
  else
    (* Step 2: choose the healthy entity with the longest log. *)
    match find_longest_log cluster with
    | None -> Error "no healthy voter found"
    | Some (chosen, chosen_last_opid, healthy_members) -> (
      match Myraft.Cluster.raft_of cluster chosen with
      | None -> Error "chosen node vanished"
      | Some raft ->
        (* Step 3: relax the election-quorum expectations across the ring
           and force an election on the chosen entity.  The relaxation
           must cover the whole promotion: if the chosen entity is a
           logtailer it will immediately hand leadership to a MySQL
           server, and that election could not win a normal quorum
           either. *)
        let healthy_rafts =
          List.filter_map
            (fun id ->
              if Myraft.Cluster.is_crashed cluster id then None
              else Myraft.Cluster.raft_of cluster id)
            (Myraft.Cluster.member_ids cluster)
        in
        List.iter (fun r -> Raft.Node.set_force_election_quorum r true) healthy_rafts;
        Raft.Node.trigger_election raft;
        let elected =
          Myraft.Cluster.run_until cluster ~timeout (fun () ->
              Myraft.Cluster.raft_leader cluster = Some chosen)
        in
        let promoted =
          elected
          && Myraft.Cluster.run_until cluster ~timeout (fun () ->
                 Myraft.Cluster.primary cluster <> None)
        in
        (* Step 4: after a successful promotion, reset the quorum
           expectations back to normal. *)
        List.iter (fun r -> Raft.Node.set_force_election_quorum r false) healthy_rafts;
        if not elected then Error "chosen entity failed to win even with relaxed quorum"
        else if not promoted then Error "no MySQL primary emerged after the forced election"
        else
          Ok
            {
              chosen;
              chosen_last_opid;
              healthy_members;
              duration_us = Myraft.Cluster.now cluster -. started;
            })
