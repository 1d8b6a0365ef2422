(* Backup and restore (§3, §5.1): the binlog-based backup service that
   MyRaft had to keep working, exercised by shadow testing alongside CDC.

   A backup is a consistent snapshot of a member's consensus-committed
   binlog prefix plus its position.  Restore replays it into a fresh
   server — engine state is rebuilt by applying the row events, exactly
   like a physical backup + binlog replay — which is also how new
   members are seeded when the history they need has already been purged
   from the ring (Raft's snapshot-install step, done by the backup
   service in Meta's deployment). *)

type t = {
  position : Binlog.Opid.t; (* last entry included *)
  entries : Binlog.Entry.t list; (* ascending, consensus-committed only *)
  gtid_executed : Binlog.Gtid_set.t;
}

let position t = t.position

let entry_count t = List.length t.entries

let gtid_executed t = t.gtid_executed

(* Take a backup from a live member: its committed binlog prefix.  Fails
   if the member's history has holes (purged below its own commit point
   before it was ever backed up — cannot happen for members that joined
   with full history or via restore). *)
let take server =
  if Myraft.Server.is_crashed server then Error "source is down"
  else begin
    let raft = Myraft.Server.raft server in
    let commit = Raft.Node.commit_index raft in
    let log = Myraft.Server.log server in
    let rec collect idx acc =
      if idx > commit then Ok (List.rev acc)
      else
        match Binlog.Log_store.entry_at log idx with
        | Some e ->
          if Binlog.Entry.verify e then collect (idx + 1) (e :: acc)
          else Error (Printf.sprintf "checksum failure at index %d" idx)
        | None -> Error (Printf.sprintf "history purged at index %d" idx)
    in
    let from_index = Binlog.Log_store.purged_below log in
    if from_index > 1 then Error "source's local history is already purged"
    else
      match collect 1 [] with
      | Error e -> Error e
      | Ok entries ->
        let position =
          match List.rev entries with
          | last :: _ -> Binlog.Entry.opid last
          | [] -> Binlog.Opid.zero
        in
        Ok
          {
            position;
            entries;
            gtid_executed =
              List.fold_left
                (fun acc e ->
                  match Binlog.Entry.gtid e with
                  | Some g -> Binlog.Gtid_set.add acc g
                  | None -> acc)
                Binlog.Gtid_set.empty entries;
          }
  end

(* Append [entries] to a server's log and apply each transaction to its
   engine, in order: how a restore, and enable-raft's seeding of each
   converted member, rebuild a server from a binlog. *)
let replay server entries =
  let log = Myraft.Server.log server and storage = Myraft.Server.storage server in
  List.iter
    (fun entry ->
      Binlog.Log_store.append log entry;
      match Binlog.Entry.payload entry with
      | Binlog.Entry.Transaction { gtid; table; ops; _ } ->
        Storage.Engine.commit_prepared storage
          (Storage.Engine.prepare storage ~gtid ~table ~ops)
          ~opid:(Binlog.Entry.opid entry)
      | Binlog.Entry.Noop | Binlog.Entry.Config_change _ | Binlog.Entry.Rotate_marker _ ->
        ())
    entries

(* Replay a backup into a fresh (empty) MySQL server. *)
let restore_into_server backup server =
  if Binlog.Log_store.last_index (Myraft.Server.log server) <> 0 then
    Error "target server is not empty"
  else begin
    replay server backup.entries;
    (* The applier was started on an empty server; its cursor must move
       to the seeded position before Raft starts feeding entries. *)
    Myraft.Server.reposition_applier server;
    Ok ()
  end

(* Seed a fresh logtailer (log only, no engine). *)
let restore_into_tailer backup tailer =
  let log = Myraft.Logtailer.log tailer in
  if Binlog.Log_store.last_index log <> 0 then Error "target logtailer is not empty"
  else begin
    List.iter (fun entry -> Binlog.Log_store.append log entry) backup.entries;
    Ok ()
  end

(* Verify a backup against a live member: every backed-up transaction
   must be engine-committed there with identical content — the §5.1
   backup-consistency check. *)
let verify_against backup server =
  let log = Myraft.Server.log server in
  let mismatch =
    List.find_opt
      (fun e ->
        match Binlog.Log_store.entry_at log (Binlog.Entry.index e) with
        | Some live ->
          not
            (Binlog.Opid.equal (Binlog.Entry.opid live) (Binlog.Entry.opid e)
            && Int32.equal (Binlog.Entry.checksum live) (Binlog.Entry.checksum e))
        | None -> false (* purged on the live side; nothing to compare *))
      backup.entries
  in
  match mismatch with
  | Some e -> Error ("backup diverges from live log at " ^ Binlog.Entry.describe e)
  | None -> Ok ()
