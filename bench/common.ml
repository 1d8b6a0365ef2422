(* Shared plumbing for the reproduction benches: the paper's evaluation
   topology on both stacks, experiment headers, and paper-vs-measured
   rows. *)

let s = Sim.Engine.s
let ms = Sim.Engine.ms
let us = Sim.Engine.us

(* Set by main's [--metrics-json FILE]: experiments that gather metrics
   snapshots dump the merged JSON there via {!write_metrics_json}. *)
let metrics_json : string option ref = ref None

(* Set by main's [--quick]: experiments that support it run a reduced
   sweep suitable for a CI gate. *)
let quick = ref false

let write_metrics_json snap =
  Option.iter
    (fun path ->
      (* Every dump carries the process-wide gc.* gauges: one dedicated
         registry sampled at write time (never per node — merged gauges
         sum, and a per-process reading must appear exactly once). *)
      let proc = Obs.Metrics.create ~node:"process" () in
      Obs.Metrics.sample_gc proc;
      let snap = Obs.Metrics.merge snap (Obs.Metrics.snapshot proc) in
      let oc = open_out path in
      output_string oc (Obs.Metrics.to_json snap);
      output_char oc '\n';
      close_out oc;
      Printf.printf "metrics snapshot written to %s\n%!" path)
    !metrics_json

let header title =
  Printf.printf "\n=======================================================================\n";
  Printf.printf "%s\n" title;
  Printf.printf "=======================================================================\n%!"

let section title = Printf.printf "\n--- %s ---\n%!" title

let paper_vs_measured ~label ~paper ~measured =
  Printf.printf "  %-44s paper: %-14s measured: %s\n%!" label paper measured

(* The §6.1 A/B topology: primary + 2 in-region logtailers, five follower
   regions with 2 logtailers each, two learners. *)
let ab_members () = Myraft.Cluster.paper_members ()

(* Latency model with production clients pinned ~10 ms RTT from every
   server region (the paper reports "about 10ms" client->primary). *)
let ab_latency () =
  List.fold_left
    (fun model region ->
      Sim.Latency.override model ~region_a:"clients" ~region_b:region ~lo:(4_600.0 *. us)
        ~hi:(5_400.0 *. us))
    Sim.Latency.default
    [ "r1"; "r2"; "r3"; "r4"; "r5"; "r6" ]

(* Cost model for the production A/B: loaded fleet machines with large
   row-based payloads (heavier prepare/flush/commit than the dedicated
   sysbench box). *)
let production_costs () =
  {
    Myraft.Params.default with
    Myraft.Params.prepare_us = 1_300.0;
    flush_base_us = 2_200.0;
    flush_per_txn_us = 40.0;
    (* checksum + compression scale with the production payloads (§3.4) *)
    raft_stamp_us = 120.0;
    commit_base_us = 1_600.0;
    commit_per_txn_us = 30.0;
    apply_per_txn_us = 500.0;
  }

let myraft_ab_cluster ~seed ~costs =
  let cluster =
    Myraft.Cluster.create ~seed ~params:costs ~latency:(ab_latency ())
      ~replicaset:"rs-ab" ~members:(ab_members ()) ()
  in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  cluster

let semisync_ab_cluster ~seed ~costs =
  let cluster =
    Semisync.Cluster.create ~seed ~costs ~latency:(ab_latency ()) ~replicaset:"rs-ab"
      ~members:(ab_members ()) ()
  in
  Semisync.Cluster.bootstrap cluster ~leader_id:"mysql1";
  cluster

(* ----- per-cell allocation accounting -----

   Every closed-loop cell runs inside a [Gc.quick_stat] delta so the
   benches report real allocator pressure next to the virtual-time
   throughput numbers: minor-heap words tell us what the hot path costs
   the collector, and words-per-committed-transaction is the figure the
   bench-regression gate locks in.  The minor words come from
   [Gc.minor_words ()], which counts every word at once and only the
   calling domain's; [Gc.quick_stat]'s figure advances only at a minor
   collection, so it lags by up to one minor heap.  All stats are
   deltas over the cell — run one cell at a time. *)

type alloc_stats = {
  al_minor_words : float;
  al_promoted_words : float;
  al_major_words : float;
  al_minor_collections : int;
  al_major_collections : int;
}

let with_alloc_stats f =
  let a = Gc.quick_stat () in
  let minor_a = Gc.minor_words () in
  let v = f () in
  let minor_b = Gc.minor_words () in
  let b = Gc.quick_stat () in
  ( v,
    {
      al_minor_words = minor_b -. minor_a;
      al_promoted_words = b.Gc.promoted_words -. a.Gc.promoted_words;
      al_major_words = b.Gc.major_words -. a.Gc.major_words;
      al_minor_collections = b.Gc.minor_collections - a.Gc.minor_collections;
      al_major_collections = b.Gc.major_collections - a.Gc.major_collections;
    } )

let words_per_txn st ~txns =
  if txns <= 0 then 0.0 else st.al_minor_words /. float_of_int txns

(* JSON fragment (no surrounding braces) recording a cell's gc.* figures,
   ready to splice into a bench cell object. *)
let alloc_json st ~txns =
  Printf.sprintf
    "\"gc\": {\"minor_words\": %.0f, \"promoted_words\": %.0f, \"major_words\": %.0f, \
     \"minor_collections\": %d, \"major_collections\": %d, \"minor_words_per_txn\": %.1f}"
    st.al_minor_words st.al_promoted_words st.al_major_words st.al_minor_collections
    st.al_major_collections (words_per_txn st ~txns)

(* ----- results files ----- *)

(* Write a bench's results file [path]: one JSON object of its
   experiment's name and [members], (name, rendered value) pairs, one
   to a line. *)
let write_results path ~experiment members =
  Out_channel.with_open_text path (fun oc ->
      Printf.fprintf oc "{\n%s\n}\n"
        (String.concat ",\n"
           (List.map
              (fun (name, value) -> Printf.sprintf "  \"%s\": %s" name value)
              (("experiment", Printf.sprintf "\"%s\"" experiment) :: members))));
  Printf.printf "results written to %s\n%!" path

(* A member value: rendered rows as a JSON array, one row to a line. *)
let json_rows to_json rows =
  Printf.sprintf "[\n%s\n  ]" (String.concat ",\n" (List.map to_json rows))

(* An alloc budget ([field]) previously recorded in a bench's JSON file
   [path] (the committed file, i.e. the state of the world before this run).
   None when the file or field is missing — first run, no gate. *)
let recorded_budget ~path ~field =
  match In_channel.with_open_text path In_channel.input_all with
  | exception _ -> None
  | body ->
    (* substring scan; the file is machine-written by this bench *)
    let key = Printf.sprintf "\"%s\": " field in
    let rec find i =
      if i + String.length key > String.length body then None
      else if String.sub body i (String.length key) = key then begin
        let j = i + String.length key in
        let k = ref j in
        while
          !k < String.length body
          && (match body.[!k] with '0' .. '9' | '.' | '-' | 'e' -> true | _ -> false)
        do
          incr k
        done;
        float_of_string_opt (String.sub body j (!k - j))
      end
      else find (i + 1)
    in
    find 0

(* The budget a run records: the recorded one, ratcheted down to this
   run's figure when it improved. *)
let ratchet budget figure =
  match budget with Some b -> Float.min b figure | None -> figure

(* Allocation regression budgets: a figure more than 10% over its
   recorded budget fails the gate. *)
let alloc_slack = 1.10

let within_budget budget figure =
  match budget with Some b -> figure <= b *. alloc_slack | None -> true

let budget_note = function
  | Some b -> Printf.sprintf " (budget %.0f, +10%% slack)" b
  | None -> " (no recorded budget; first run)"

let pct h p = Stats.Histogram.percentile h p

let dist_row ~label h =
  Printf.printf "  %-12s n=%-6d avg=%10.1f  p50=%10.1f  p95=%10.1f  p99=%10.1f (us)\n%!"
    label (Stats.Histogram.count h) (Stats.Histogram.mean h) (pct h 50.0) (pct h 95.0)
    (pct h 99.0)

let dist_row_ms ~label h =
  Printf.printf "  %-10s %-10s pct99=%8.0f  pct95=%8.0f  median=%8.0f  avg=%8.0f (ms)\n%!"
    (fst label) (snd label)
    (pct h 99.0 /. ms)
    (pct h 95.0 /. ms)
    (pct h 50.0 /. ms)
    (Stats.Histogram.mean h /. ms)
