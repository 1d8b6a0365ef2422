(* Per-node metrics registry: named counters, gauges and latency
   histograms.

   The registry is built for a hot path that is already instrumented by a
   discrete-event simulator: a metric is resolved (get-or-create, one
   hashtable probe and an add on a miss) once at wiring time and then
   mutated through a direct record reference — recording is a single
   field update or a [Stats.Histogram.record].  Components that only
   touch a metric on cold paths can use the [bump]/[set]/[observe]
   conveniences instead.

   Snapshots decouple observation from the live registry: a snapshot is
   an immutable, name-sorted view that can be merged across nodes (the
   cluster-wide view the CLI prints), rendered as a text table, or
   serialized to JSON for the bench/chaos [--metrics-json] dumps. *)

type counter = { c_name : string; mutable c_value : int }

(* A gauge's value lives in an all-float record, stored flat: writing
   an unboxed float into it allocates nothing, so [set_gauge_int]
   (which converts inside this module) is allocation-free even when the
   caller sits across an [-opaque] module boundary. *)
type cell = { mutable v : float }

type gauge = { g_name : string; g_cell : cell }

type histogram = { h_name : string; h_data : Stats.Histogram.t }

type t = {
  node : string;
  counters : (string, counter) Hashtbl.t;
  gauges : (string, gauge) Hashtbl.t;
  histograms : (string, histogram) Hashtbl.t;
}

let create ?(node = "") () =
  {
    node;
    counters = Hashtbl.create 32;
    gauges = Hashtbl.create 16;
    histograms = Hashtbl.create 16;
  }

let node t = t.node

(* ----- counters ----- *)

let counter t name =
  match Hashtbl.find_opt t.counters name with
  | Some c -> c
  | None ->
    let c = { c_name = name; c_value = 0 } in
    Hashtbl.add t.counters name c;
    c

let incr c = c.c_value <- c.c_value + 1

let add c n = c.c_value <- c.c_value + n

let counter_value c = c.c_value

let bump ?(by = 1) t name = add (counter t name) by

(* ----- gauges ----- *)

let gauge t name =
  match Hashtbl.find_opt t.gauges name with
  | Some g -> g
  | None ->
    let g = { g_name = name; g_cell = { v = 0.0 } } in
    Hashtbl.add t.gauges name g;
    g

let set_gauge g v = g.g_cell.v <- v

let set_gauge_int g n = g.g_cell.v <- float_of_int n

let gauge_value g = g.g_cell.v

let set t name v = set_gauge (gauge t name) v

(* ----- histograms ----- *)

let histogram t name =
  match Hashtbl.find_opt t.histograms name with
  | Some h -> h
  | None ->
    let h = { h_name = name; h_data = Stats.Histogram.create () } in
    Hashtbl.add t.histograms name h;
    h

let record h v = Stats.Histogram.record h.h_data v

let record_elapsed h now starts i = Stats.Histogram.record_elapsed h.h_data now starts i

let record_int h n = Stats.Histogram.record_int h.h_data n

let observe t name v = record (histogram t name) v

(* ----- GC / allocator observability ----- *)

(* Sample the process-wide allocator and collector state into gc.*
   gauges.  [Gc.quick_stat] is exact for collection counts and cheap
   (no heap traversal), which is what a bench harness wants to call
   once per cell.  The numbers are per-process, not per-node: sample
   into ONE dedicated registry (the bench harness's, or the CLI's
   "process" registry), never into per-node registries that later get
   merged — merged gauges sum, and summing a process-wide reading once
   per node would overcount by the node count. *)
let sample_gc t =
  let s = Gc.quick_stat () in
  set t "gc.minor_words" s.Gc.minor_words;
  set t "gc.promoted_words" s.Gc.promoted_words;
  set t "gc.major_words" s.Gc.major_words;
  set t "gc.minor_collections" (float_of_int s.Gc.minor_collections);
  set t "gc.major_collections" (float_of_int s.Gc.major_collections);
  set t "gc.compactions" (float_of_int s.Gc.compactions);
  set t "gc.heap_words" (float_of_int s.Gc.heap_words)

(* ----- snapshots ----- *)

type snapshot = {
  snap_node : string;
  snap_counters : (string * int) list; (* name-sorted *)
  snap_gauges : (string * float) list;
  snap_histograms : (string * Stats.Histogram.t) list;
}

let sorted_bindings table value =
  Hashtbl.fold (fun name v acc -> (name, value v) :: acc) table []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let copy_histogram h = Stats.Histogram.merge h (Stats.Histogram.create ())

let snapshot t =
  {
    snap_node = t.node;
    snap_counters = sorted_bindings t.counters (fun c -> c.c_value);
    snap_gauges = sorted_bindings t.gauges (fun g -> g.g_cell.v);
    snap_histograms = sorted_bindings t.histograms (fun h -> copy_histogram h.h_data);
  }

let empty_snapshot =
  { snap_node = ""; snap_counters = []; snap_gauges = []; snap_histograms = [] }

let counter_of snap name =
  Option.value (List.assoc_opt name snap.snap_counters) ~default:0

let gauge_of snap name = List.assoc_opt name snap.snap_gauges

let histogram_of snap name = List.assoc_opt name snap.snap_histograms

(* Merge two name-sorted association lists, combining values present in
   both. *)
let rec merge_assoc combine a b =
  match (a, b) with
  | [], rest | rest, [] -> rest
  | (ka, va) :: ra, (kb, vb) :: rb ->
    if ka < kb then (ka, va) :: merge_assoc combine ra b
    else if kb < ka then (kb, vb) :: merge_assoc combine a rb
    else (ka, combine va vb) :: merge_assoc combine ra rb

(* Counters sum, gauges sum (queue depths and cache bytes aggregate
   meaningfully; a per-node view is always available unmerged),
   histograms pool their samples. *)
let merge a b =
  let node =
    match (a.snap_node, b.snap_node) with
    | "", n | n, "" -> n
    | na, nb when na = nb -> na
    | na, nb -> na ^ "+" ^ nb
  in
  {
    snap_node = node;
    snap_counters = merge_assoc ( + ) a.snap_counters b.snap_counters;
    snap_gauges = merge_assoc ( +. ) a.snap_gauges b.snap_gauges;
    snap_histograms = merge_assoc Stats.Histogram.merge a.snap_histograms b.snap_histograms;
  }

let merge_all ?(node = "") snaps =
  let merged = List.fold_left merge empty_snapshot snaps in
  { merged with snap_node = (if node = "" then merged.snap_node else node) }

(* ----- rendering ----- *)

let render snap =
  let buf = Buffer.create 2048 in
  if snap.snap_node <> "" then
    Buffer.add_string buf (Printf.sprintf "== metrics: %s ==\n" snap.snap_node);
  if snap.snap_counters <> [] then begin
    Buffer.add_string buf "counters:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-44s %d\n" name v))
      snap.snap_counters
  end;
  if snap.snap_gauges <> [] then begin
    Buffer.add_string buf "gauges:\n";
    List.iter
      (fun (name, v) -> Buffer.add_string buf (Printf.sprintf "  %-44s %.1f\n" name v))
      snap.snap_gauges
  end;
  if snap.snap_histograms <> [] then begin
    Buffer.add_string buf "histograms:\n";
    List.iter
      (fun (name, h) ->
        Buffer.add_string buf
          ("  " ^ Stats.Histogram.summary_line ~label:(Printf.sprintf "%-34s" name) h ^ "\n"))
      snap.snap_histograms
  end;
  Buffer.contents buf

(* ----- JSON ----- *)

let json_escape s =
  let buf = Buffer.create (String.length s + 8) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | '\t' -> Buffer.add_string buf "\\t"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

let json_float f =
  if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.1f" f
  else Printf.sprintf "%g" f

let histogram_json h =
  if Stats.Histogram.is_empty h then {|{"count":0}|}
  else
    Printf.sprintf
      {|{"count":%d,"mean":%s,"p50":%s,"p95":%s,"p99":%s,"max":%s}|}
      (Stats.Histogram.count h)
      (json_float (Stats.Histogram.mean h))
      (json_float (Stats.Histogram.percentile h 50.0))
      (json_float (Stats.Histogram.percentile h 95.0))
      (json_float (Stats.Histogram.percentile h 99.0))
      (json_float (Stats.Histogram.max_value h))

let to_json snap =
  let fields to_s bindings =
    String.concat ","
      (List.map (fun (name, v) -> Printf.sprintf {|"%s":%s|} (json_escape name) (to_s v)) bindings)
  in
  Printf.sprintf
    {|{"node":"%s","counters":{%s},"gauges":{%s},"histograms":{%s}}|}
    (json_escape snap.snap_node)
    (fields string_of_int snap.snap_counters)
    (fields json_float snap.snap_gauges)
    (fields histogram_json snap.snap_histograms)
