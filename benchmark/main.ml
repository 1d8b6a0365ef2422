(* The repository benchmark.

     dune exec benchmark/main.exe -- [--workload W|all] [--seed N] [--seconds S]
       [--measure S] [--trace [0|1]] [--trace-out FILE]
     dune exec benchmark/main.exe -- --reproduce [--workload W|all]
     dune exec benchmark/main.exe -- --compare BASE CHANGE

   One workload prints "workload metric value unit" lines, then one JSON
   result as its last line, and exits 1 when a correctness check fails.
   [--workload all] runs each workload in its own process, so peak heap
   and GC state belong to that workload alone, and ends with one JSON
   line mapping workload name to result: the input format of
   [--compare].  See BENCHMARK.md. *)

let usage () =
  prerr_endline
    "usage: main.exe [--workload lan-saturate|wan-open|read-lease|failover|all]\n\
    \       [--seed N] [--seconds S] [--measure S]\n\
    \       [--trace [0|1]] [--trace-out FILE]\n\
    \   or: main.exe --reproduce [--workload lan-saturate|read-lease|all]\n\
    \   or: main.exe --compare BASE CHANGE   (bounds from ./BENCHMARK.json)";
  exit 2

type opts = {
  mutable workload : string;
  mutable seed : int option;
  mutable seconds : float;
  mutable measure : float option;
  mutable trace : bool;
  mutable trace_out : string option;
  mutable reproduce : bool;
  mutable compare : (string * string) option;
}

let parse argv =
  let o =
    {
      workload = "all";
      seed = None;
      seconds = 10.0;
      measure = None;
      trace = false;
      trace_out = None;
      reproduce = false;
      compare = None;
    }
  in
  let num f v = match f v with Some x -> x | None -> usage () in
  let rec go = function
    | [] -> ()
    | "--workload" :: w :: rest ->
      o.workload <- w;
      go rest
    | "--seed" :: n :: rest ->
      o.seed <- Some (num int_of_string_opt n);
      go rest
    | "--seconds" :: x :: rest ->
      o.seconds <- num float_of_string_opt x;
      go rest
    | "--measure" :: x :: rest ->
      o.measure <- Some (num float_of_string_opt x);
      go rest
    | "--trace" :: ("0" | "1" as v) :: rest ->
      o.trace <- v = "1";
      go rest
    | "--trace" :: rest ->
      o.trace <- true;
      go rest
    | "--trace-out" :: f :: rest ->
      o.trace_out <- Some f;
      go rest
    | "--reproduce" :: rest ->
      o.reproduce <- true;
      go rest
    | "--compare" :: base :: change :: rest ->
      o.compare <- Some (base, change);
      go rest
    | _ -> usage ()
  in
  go argv;
  if o.seconds <= 0.0 || Option.fold ~none:false ~some:(fun m -> m <= 0.0) o.measure
     || (o.reproduce && (o.seed <> None || o.measure <> None))
  then usage ();
  o

(* Re-run this executable for one workload, echoing its output; returns
   its last line and whether it exited 0. *)
let child o name =
  let opt flag = Option.fold ~none:[] ~some:(fun v -> [ flag; v ]) in
  let args =
    [ Sys.executable_name; "--workload"; name; "--seconds"; string_of_float o.seconds;
      "--trace"; (if o.trace then "1" else "0") ]
    @ opt "--seed" (Option.map string_of_int o.seed)
    @ opt "--measure" (Option.map string_of_float o.measure)
    @ opt "--trace-out" (Option.map (fun f -> f ^ "." ^ name) o.trace_out)
    @ if o.reproduce then [ "--reproduce" ] else []
  in
  let ic = Unix.open_process_args_in Sys.executable_name (Array.of_list args) in
  let last = ref "" in
  (try
     while true do
       let l = input_line ic in
       print_endline l;
       last := l
     done
   with End_of_file -> ());
  flush stdout;
  let ok = Unix.close_process_in ic = Unix.WEXITED 0 in
  (!last, ok)

let () =
  let o = parse (List.tl (Array.to_list Sys.argv)) in
  match o.compare with
  | Some (base, change) -> (
    match Compare.run ~bench:"BENCHMARK.json" ~base ~change with
    | ok -> exit (if ok then 0 else 1)
    | exception (Compare.Bad_json msg | Sys_error msg) ->
      prerr_endline msg;
      exit 2)
  | None ->
    let scale =
      { Benchmark.seconds = o.seconds; measure = o.measure; reproduce = o.reproduce }
    in
    let all =
      List.filter
        (fun (wl : Benchmark.workload) -> (not o.reproduce) || wl.anchor <> [])
        (Benchmark.workloads scale)
    in
    if o.workload = "all" then begin
      let results =
        List.map (fun (wl : Benchmark.workload) -> (wl.name, child o wl.name)) all
      in
      let entry (name, (last, _)) =
        let result = if String.starts_with ~prefix:"{" last then last else "null" in
        Printf.sprintf "%S: %s" name result
      in
      print_endline ("{" ^ String.concat ", " (List.map entry results) ^ "}");
      exit (if List.for_all (fun (_, (_, ok)) -> ok) results then 0 else 1)
    end
    else
      match List.find_opt (fun (wl : Benchmark.workload) -> wl.name = o.workload) all with
      | None -> usage ()
      | Some wl ->
        let seed = Option.value o.seed ~default:wl.default_seed in
        let ok =
          Benchmark.run_one wl ~seed ~scale ~trace:o.trace ~trace_out:o.trace_out
        in
        exit (if ok then 0 else 1)
