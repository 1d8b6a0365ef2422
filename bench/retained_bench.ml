(* Memory a committed transaction leaves behind: the pipeline bench's
   hot cell (window 8, 2 ms quorum RTT, 768 closed-loop writers, ~300 B
   rows) measured at two run lengths.

     dune exec bench/main.exe -- retained            # 1 s and 4 s
     dune exec bench/main.exe -- retained --quick    # 0.5 s and 1 s

   At each length, after [Gc.full_major], it prints the words reachable
   from every member's log store (entries the members share counted
   once), the words every MySQL member's storage engine reaches beyond
   those (its rows, row tables and commit history: the keys, values,
   GTIDs and OpIds it shares with the logs are counted with the logs)
   and the live heap words, each per committed transaction so far, and
   then the slope of all three between the two lengths: the words each
   further commit adds.  Nothing is purged during the run, so the log's
   slope is what a commit costs the heap until retention purges it.
   Gates nothing. *)

open Common

type point = {
  p_seconds : float;
  p_committed : int;
  p_log_words : int;
  p_engine_words : int;
  p_live_words : int;
}

(* Words reachable from [blocks] held in one array, so a block several
   of them share is reached once; the array's own header and fields
   are not counted. *)
let reachable blocks =
  let a = Array.of_list blocks in
  Obj.reachable_words (Obj.repr a) - (Array.length a + 1)

(* Every member's log store, and every MySQL member's engine. *)
let logs cluster =
  List.map (fun s -> Obj.repr (Myraft.Server.log s)) (Myraft.Cluster.servers cluster)
  @ List.map (fun t -> Obj.repr (Myraft.Logtailer.log t)) (Myraft.Cluster.tailers cluster)

let engines cluster =
  List.map (fun s -> Obj.repr (Myraft.Server.storage s)) (Myraft.Cluster.servers cluster)

let measure_point cluster gen ~seconds =
  Gc.full_major ();
  let logs = logs cluster in
  let log_words = reachable logs in
  {
    p_seconds = seconds;
    p_committed = (Workload.Generator.stats gen).Workload.Generator.committed;
    p_log_words = log_words;
    p_engine_words = reachable (logs @ engines cluster) - log_words;
    p_live_words = (Gc.stat ()).Gc.live_words;
  }

let per_txn words p = float_of_int words /. float_of_int (max 1 p.p_committed)

let kib words = words *. float_of_int (Sys.word_size / 8) /. 1024.0

let run () =
  let lengths = if !Common.quick then (0.5, 1.0) else (1.0, 4.0) in
  header "Retained — heap words per committed transaction, pipeline hot cell";
  let cluster, gen = Pipeline_bench.start_cell ~window:8 ~rtt_ms:2.0 ~seed:71 in
  let at seconds =
    Myraft.Cluster.run_for cluster ((seconds *. s) -. Myraft.Cluster.now cluster);
    measure_point cluster gen ~seconds
  in
  let short = at (fst lengths) in
  let long = at (snd lengths) in
  Workload.Generator.stop gen;
  Printf.printf "  %-8s %10s %14s %17s %14s\n" "length" "committed" "log words/txn"
    "engine words/txn" "live words/txn";
  List.iter
    (fun p ->
      Printf.printf "  %-8s %10d %14.1f %17.1f %14.1f\n%!"
        (Printf.sprintf "%g s" p.p_seconds)
        p.p_committed (per_txn p.p_log_words p) (per_txn p.p_engine_words p)
        (per_txn p.p_live_words p))
    [ short; long ];
  let commits = float_of_int (long.p_committed - short.p_committed) in
  let slope words_of = float_of_int (words_of long - words_of short) /. commits in
  let log_slope = slope (fun p -> p.p_log_words)
  and engine_slope = slope (fun p -> p.p_engine_words)
  and live_slope = slope (fun p -> p.p_live_words) in
  Printf.printf
    "  slope %g s -> %g s: log %.1f, engine %.1f, live %.1f words/txn (%.2f KiB/txn)\n%!"
    short.p_seconds long.p_seconds log_slope engine_slope live_slope (kib live_slope)
