(* Snapshot bench: rejoin time for a replica that fell behind the
   primary's purged binlog — InstallSnapshot rescue vs full log replay.

     dune exec bench/main.exe -- snapshot            # full sweep
     dune exec bench/main.exe -- snapshot --quick    # CI cell only

   The replica crashes right after bootstrap; the primary then commits
   [entries] transactions over a bounded key space (state stays small
   while the log grows — the regime where compaction pays).  For
   purge-fraction 0 the log is kept whole and the rejoiner catches up by
   ordinary replay: every entry is shipped through the AppendEntries
   window and re-executed by the applier.  For purge-fraction f the
   primary flushes and purges once f·entries are committed, so the
   rejoiner comes back behind the purge horizon, wedges, and is rescued
   by an engine-checkpoint InstallSnapshot — transfer cost scales with
   the (bounded) state, not the log.

   Writes BENCH_SNAPSHOT.json and gates on the largest log: the
   snapshot-path rejoin must be at least [gate_ratio] times faster than
   full replay of the same log. *)

open Common

let threads = 128

let key_space = 2_000

(* Crash-to-load gap: the rejoiner must be past the leader's liveness
   grace (2 x missed_heartbeats x heartbeat_interval = 3 s at defaults)
   before the purge, or safe_purge_index still floors on its
   match_index and nothing is dropped. *)
let grace_gap = 4.0 *. s

let gate_ratio () = if !Common.quick then 2.0 else 5.0

type cell = {
  c_entries : int;
  c_frac : float;
  c_rejoin_s : float;
  c_target : int; (* commit index the rejoiner had to reach *)
  c_purged_files : int;
  c_installs : int; (* snapshots installed on the rejoiner *)
  c_converged : bool;
}

let run_cell ~entries ~frac ~seed =
  (* Loaded-fleet cost model: replay pays the production per-transaction
     apply cost, the regime the paper's provisioning numbers describe. *)
  let cluster =
    Myraft.Cluster.create ~seed ~params:(production_costs ()) ~replicaset:"rs-snap"
      ~members:(Myraft.Cluster.small_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  let server id =
    match Myraft.Cluster.server cluster id with
    | Some s -> s
    | None -> failwith (id ^ " missing from small topology")
  in
  let primary = server "mysql1" and rejoiner = server "mysql3" in
  Myraft.Cluster.crash cluster "mysql3";
  Myraft.Cluster.run_for cluster grace_gap;
  let backend = Workload.Backend.myraft cluster in
  (* One generator per phase: the purge needs a quiesced primary —
     under active load safe_purge_index trails the tip by the in-flight
     replication windows, so the freshly-closed file is never whole
     below it and nothing drops. *)
  let load ~phase target =
    let gen =
      Workload.Generator.create ~backend ~client_id:("snap-load-" ^ phase)
        ~region:"r1" ~client_latency:(1.0 *. ms) ~key_space
        ~key_dist:Workload.Generator.Uniform ~value_mu:(log 300.0) ~value_sigma:0.2 ()
    in
    Workload.Generator.start_closed_loop gen ~threads;
    while (Workload.Generator.stats gen).Workload.Generator.committed < target do
      Myraft.Cluster.run_for cluster (0.25 *. s)
    done;
    Workload.Generator.stop gen;
    Myraft.Cluster.run_for cluster (0.5 *. s) (* drain the pipeline *)
  in
  let purge_point = int_of_float (frac *. float_of_int entries) in
  let purged_files = ref 0 in
  if frac > 0.0 then begin
    load ~phase:"a" purge_point;
    (match Myraft.Server.flush_binary_logs primary with
    | Ok () -> ()
    | Error e -> failwith ("flush failed: " ^ e));
    (* the rotate is a replicated event: the file only closes once it
       is consensus committed *)
    Myraft.Cluster.run_for cluster (0.5 *. s);
    purged_files := Myraft.Server.purge_binary_logs primary
  end;
  load ~phase:"b" (entries - purge_point);
  let target =
    match Myraft.Cluster.raft_of cluster "mysql1" with
    | Some raft -> Raft.Node.commit_index raft
    | None -> 0
  in
  let t0 = Myraft.Cluster.now cluster in
  Myraft.Cluster.restart cluster "mysql3";
  let converged =
    Myraft.Cluster.run_until cluster ~timeout:(300.0 *. s) (fun () ->
        Myraft.Server.applied_through rejoiner >= target)
  in
  let m = Raft.Node.metrics (Myraft.Server.raft rejoiner) in
  {
    c_entries = entries;
    c_frac = frac;
    c_rejoin_s = (Myraft.Cluster.now cluster -. t0) /. s;
    c_target = target;
    c_purged_files = !purged_files;
    c_installs = Obs.Metrics.counter_value (Obs.Metrics.counter m "snapshot.installs");
    c_converged = converged;
  }

let json_of_cell c =
  Printf.sprintf
    "    {\"entries\": %d, \"purge_frac\": %g, \"rejoin_s\": %.3f, \"target_index\": %d, \
     \"purged_files\": %d, \"snapshot_installs\": %d, \"converged\": %b}"
    c.c_entries c.c_frac c.c_rejoin_s c.c_target c.c_purged_files c.c_installs
    c.c_converged

let write_json ~quick ~cells ~replay ~snap ~ratio ~pass =
  write_results "BENCH_SNAPSHOT.json" ~experiment:"snapshot"
    [
      ("quick", string_of_bool quick);
      ("cells", json_rows json_of_cell cells);
      ( "gate",
        Printf.sprintf
          "{\"entries\": %d, \"replay_s\": %.3f, \"snapshot_s\": %.3f, \"ratio\": %.2f, \
           \"min_ratio\": %g, \"pass\": %b}"
          replay.c_entries replay.c_rejoin_s snap.c_rejoin_s ratio (gate_ratio ()) pass );
    ]

let run () =
  let quick = !Common.quick in
  header
    (if quick then "Snapshot — rejoin after purge, CI cell (replay vs InstallSnapshot)"
     else "Snapshot — rejoin time: full replay vs InstallSnapshot, log x purge sweep");
  let lengths = if quick then [ 8_000 ] else [ 10_000; 50_000 ] in
  let fracs = if quick then [ 0.0; 0.9 ] else [ 0.0; 0.5; 0.9 ] in
  Printf.printf "  %d keys, %d closed-loop threads; rejoiner crashed for the whole load\n\n%!"
    key_space threads;
  Printf.printf "  %-9s %-10s %10s %10s %8s %9s %10s\n" "entries" "purge_frac"
    "rejoin_s" "target" "files" "installs" "converged";
  let cells =
    List.concat_map
      (fun entries ->
        List.map
          (fun frac ->
            let c = run_cell ~entries ~frac ~seed:41 in
            Printf.printf "  %-9d %-10g %10.3f %10d %8d %9d %10b\n%!" c.c_entries
              c.c_frac c.c_rejoin_s c.c_target c.c_purged_files c.c_installs
              c.c_converged;
            c)
          fracs)
      lengths
  in
  let biggest = List.fold_left (fun acc c -> max acc c.c_entries) 0 cells in
  let find frac = List.find (fun c -> c.c_entries = biggest && c.c_frac = frac) cells in
  let replay = find 0.0 and snap = find 0.9 in
  let ratio = replay.c_rejoin_s /. Float.max snap.c_rejoin_s 1e-9 in
  (* the comparison only means something if both sides converged and the
     purge cell actually took the snapshot path *)
  let pass =
    ratio >= gate_ratio ()
    && List.for_all (fun c -> c.c_converged) cells
    && snap.c_installs >= 1 && replay.c_installs = 0
  in
  write_json ~quick ~cells ~replay ~snap ~ratio ~pass;
  Printf.printf
    "\n  gate @ %d entries: replay %.3f s vs snapshot %.3f s — %.1fx, need >= %gx\n%!"
    biggest replay.c_rejoin_s snap.c_rejoin_s ratio (gate_ratio ());
  if pass then Printf.printf "  snapshot gate: PASS\n%!"
  else begin
    Printf.printf "  snapshot gate: FAIL\n%!";
    exit 1
  end
