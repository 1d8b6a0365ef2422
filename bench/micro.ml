(* M1 — Bechamel micro-benchmarks (real wall-clock time) of the hot data
   structures: GTID-set operations, log append, CRC-32 checksumming,
   entry stamping, quorum evaluation, the commit point and the lease
   threshold, the log cache, the trace ring, the event heap, and
   histogram recording. *)

open Bechamel
open Toolkit

let gtid_set_add =
  Test.make ~name:"gtid_set.add (1k gnos)"
    (Staged.stage (fun () ->
         let set = ref Binlog.Gtid_set.empty in
         for g = 1 to 1000 do
           set := Binlog.Gtid_set.add !set (Binlog.Gtid.make ~source:"srv" ~gno:g)
         done;
         !set))

let gtid_set_contains =
  let set =
    let s = ref Binlog.Gtid_set.empty in
    for g = 1 to 10_000 do
      if g mod 3 <> 0 then s := Binlog.Gtid_set.add !s (Binlog.Gtid.make ~source:"srv" ~gno:g)
    done;
    !s
  in
  Test.make ~name:"gtid_set.contains (10k-gno set)"
    (Staged.stage (fun () ->
         Binlog.Gtid_set.contains set (Binlog.Gtid.make ~source:"srv" ~gno:7777)))

let log_append =
  Test.make ~name:"log_store.append (100 txns)"
    (Staged.stage (fun () ->
         let log = Binlog.Log_store.create () in
         for i = 1 to 100 do
           Binlog.Log_store.append log
             (Binlog.Entry.make
                ~opid:(Binlog.Opid.make ~term:1 ~index:i)
                (Binlog.Entry.Transaction
                   {
                     gtid = Binlog.Gtid.make ~source:"srv" ~gno:i;
                     events =
                       [
                         Binlog.Event.make
                           (Binlog.Event.Write_rows
                              {
                                table = "t";
                                ops = [ Binlog.Event.Insert { key = "k"; value = "v" } ];
                              });
                       ];
                   }))
         done;
         log))

let crc32 =
  let payload = String.make 512 'x' in
  Test.make ~name:"crc32 (512B payload)" (Staged.stage (fun () -> Binlog.Checksum.string payload))

(* One sysbench-style write as the commit path stamps it: GTID, table
   map, a one-row insert of ~300 B, XID. *)
let entry_make =
  let gtid = Binlog.Gtid.make ~source:"mysql1" ~gno:12_345 in
  let payload =
    Binlog.Entry.Transaction
      {
        gtid;
        events =
          [
            Binlog.Event.make (Binlog.Event.Gtid_event gtid);
            Binlog.Event.make (Binlog.Event.Table_map { table = "sbtest" });
            Binlog.Event.make
              (Binlog.Event.Write_rows
                 {
                   table = "sbtest";
                   ops = [ Binlog.Event.Insert { key = "row-12345"; value = String.make 300 'd' } ];
                 });
            Binlog.Event.make (Binlog.Event.Xid { xid = 12_345L });
          ];
      }
  in
  let opid = Binlog.Opid.make ~term:3 ~index:12_345 in
  Test.make ~name:"entry.make (sysbench txn, 300B row)"
    (Staged.stage (fun () -> Binlog.Entry.make ~opid payload))

(* The §6.1 evaluation ring: six regions of three voters each. *)
let cfg_18 =
  {
    Raft.Types.members =
      List.concat_map
        (fun r ->
          List.map
            (fun i ->
              {
                Raft.Types.id = Printf.sprintf "n%s%d" r i;
                region = r;
                voter = true;
                kind = Raft.Types.Mysql_server;
              })
            [ 1; 2; 3 ])
        [ "r1"; "r2"; "r3"; "r4"; "r5"; "r6" ];
  }

let quorum_check =
  let acks = [ "nr11"; "nr12" ] in
  Test.make ~name:"flexiraft data-quorum check (18 voters)"
    (Staged.stage (fun () ->
         Raft.Quorum.data_quorum_satisfied Raft.Quorum.Single_region_dynamic cfg_18
           ~leader_region:"r1" ~acks))

(* A leader in r1 with a pipeline in flight: acks spread over the last
   few indexes, looked up by node id as the Raft node does. *)
let commit_point =
  let acked = Hashtbl.create 32 in
  List.iteri
    (fun i m -> Hashtbl.replace acked m.Raft.Types.id (1_000 - (i * 3)))
    cfg_18.Raft.Types.members;
  let ack id = match Hashtbl.find acked id with n -> n | exception Not_found -> 0 in
  Test.make ~name:"quorum.commit_point (18 voters)"
    (Staged.stage (fun () ->
         Raft.Quorum.commit_point Raft.Quorum.Single_region_dynamic cfg_18 ~leader_region:"r1"
           ~ack ~above:990 ~upto:1_000))

(* The same leader's lease search: every peer's acked send, stamped a
   few hundred microseconds apart, looked up by node id. *)
let lease_point =
  let sends = Hashtbl.create 32 in
  List.iteri
    (fun i m ->
      let local = 1_000_000.0 -. (float_of_int i *. 250.0) in
      Hashtbl.replace sends m.Raft.Types.id (local, local +. 3.0))
    (List.tl cfg_18.Raft.Types.members);
  Test.make ~name:"quorum.lease_point (18 voters)"
    (Staged.stage (fun () ->
         Raft.Quorum.lease_point Raft.Quorum.Single_region_dynamic cfg_18 ~leader_region:"r1"
           ~self:"nr11" ~now:1_000_500.0 ~now_global:1_000_503.0 ~sends ~local:fst
           ~global:snd))

(* One consensus-commit event into a full (wrapping) trace ring. *)
let tracebuf_record =
  let tb = Obs.Tracebuf.create () in
  let index = ref 0 in
  Test.make ~name:"tracebuf.record"
    (Staged.stage (fun () ->
         incr index;
         Obs.Tracebuf.record tb ~time:1_000.0 ~node:"mysql1" ~stage:"consensus-commit" ~term:3
           ~index:!index ()))

(* Leader cache turnover: 64 sysbench-sized entries put at the tail, then
   read back as one AppendEntries slice. *)
let log_cache_put_slice =
  let entries =
    Array.init 64 (fun i ->
        Binlog.Entry.make
          ~opid:(Binlog.Opid.make ~term:1 ~index:(i + 1))
          (Binlog.Entry.Transaction
             {
               gtid = Binlog.Gtid.make ~source:"srv" ~gno:(i + 1);
               events =
                 [
                   Binlog.Event.make
                     (Binlog.Event.Write_rows
                        {
                          table = "sbtest";
                          ops =
                            [ Binlog.Event.Insert { key = "k"; value = String.make 300 'd' } ];
                        });
                 ];
             }))
  in
  let cache = Raft.Log_cache.create ~max_bytes:(4 * 1024 * 1024) () in
  Test.make ~name:"log_cache.put + read_slice (64 entries)"
    (Staged.stage (fun () ->
         Raft.Log_cache.truncate_from cache ~index:1;
         Array.iter (Raft.Log_cache.put cache) entries;
         Raft.Log_cache.read_slice cache ~max_bytes:(128 * 1024) ~from_index:1 ~max_count:64
           ~read_log:(fun _ -> None) ()))

(* The event queue at a steady depth: each run schedules one event a
   pseudo-random distance past the last one popped, then pops the
   earliest, as the engine's loop does. *)
let heap_push_pop depth =
  let heap = Sim.Heap.create () in
  let seq = ref 0 and now = ref 0.0 in
  let next_key () =
    incr seq;
    !now +. float_of_int ((!seq * 7919) mod 5_000)
  in
  for _ = 1 to depth do
    Sim.Heap.push heap ~key:(next_key ()) ~seq:!seq ()
  done;
  Test.make
    ~name:(Printf.sprintf "sim.heap push+pop (depth %dk)" (depth / 1000))
    (Staged.stage (fun () ->
         Sim.Heap.push heap ~key:(next_key ()) ~seq:!seq ();
         now := Sim.Heap.min_key heap;
         Sim.Heap.pop_min heap))

let pipeline_group_drain =
  (* submit → flush group → consensus release → engine commit for 100
     txns; exercises the preallocated group accumulator end to end *)
  Test.make ~name:"pipeline group drain (100 txns)"
    (Staged.stage (fun () ->
         let engine = Sim.Engine.create () in
         let p =
           Myraft.Pipeline.create ~engine ~params:Myraft.Params.default ~is_primary_path:true
             ()
         in
         let done_count = ref 0 in
         for i = 1 to 100 do
           Myraft.Pipeline.submit p
             {
               Myraft.Pipeline.flush = (fun () -> Ok i);
               finish = (fun ~ok:_ -> incr done_count);
             }
         done;
         Myraft.Pipeline.notify_commit_index p 100;
         Sim.Engine.run_for engine (0.1 *. Sim.Engine.s);
         assert (!done_count = 100);
         !done_count))

let histogram_record =
  Test.make ~name:"histogram.record (1k samples)"
    (Staged.stage (fun () ->
         let h = Stats.Histogram.create () in
         for i = 1 to 1000 do
           Stats.Histogram.record h (float_of_int i)
         done;
         h))

let run () =
  Common.header "M1 — micro-benchmarks (Bechamel, real time)";
  let tests =
    [
      gtid_set_add;
      gtid_set_contains;
      log_append;
      crc32;
      entry_make;
      quorum_check;
      commit_point;
      lease_point;
      tracebuf_record;
      log_cache_put_slice;
      heap_push_pop 1_000;
      heap_push_pop 300_000;
      pipeline_group_drain;
      histogram_record;
    ]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg = Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:(Some 100) () in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances test in
      let analyzed =
        Analyze.all (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          Instance.monotonic_clock results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "  %-42s %12.1f ns/run\n%!" name est
          | _ -> Printf.printf "  %-42s (no estimate)\n%!" name)
        analyzed)
    tests
