(* [--compare BASE CHANGE]: per workload and metric, each side's median
   and quartiles and the change's delta against the bound BENCHMARK.json
   fixes.

   BASE and CHANGE hold one JSON document per line, each the last line
   of a [--workload all] run: an object mapping workload name to that
   workload's result.  A metric is "unresolved" when the base's own
   quartile spread exceeds its bound, unless every change run beats
   every base run.  Each workload also gets a [failed/attempted] row:
   the change regresses when its pooled failure rate exceeds the base's
   by more than [failure_bound]. *)

type json =
  | Obj of (string * json) list
  | Arr of json list
  | Num of float
  | Str of string
  | Bool of bool
  | Null

exception Bad_json of string

let parse text =
  let n = String.length text and pos = ref 0 in
  let fail what = raise (Bad_json (Printf.sprintf "%s at byte %d" what !pos)) in
  let peek () = if !pos < n then text.[!pos] else '\000' in
  let rec ws () =
    match peek () with
    | ' ' | '\t' | '\n' | '\r' ->
      incr pos;
      ws ()
    | _ -> ()
  in
  let expect c =
    ws ();
    if peek () <> c then fail (Printf.sprintf "expected %C" c);
    incr pos
  in
  let str () =
    expect '"';
    let b = Buffer.create 16 in
    let rec go () =
      match peek () with
      | '"' -> incr pos
      | '\\' ->
        let c = if !pos + 1 < n then text.[!pos + 1] else fail "bad escape" in
        pos := !pos + 2;
        (match c with
        | 'n' -> Buffer.add_char b '\n'
        | 't' -> Buffer.add_char b '\t'
        | 'r' -> Buffer.add_char b '\r'
        | 'b' -> Buffer.add_char b '\b'
        | 'f' -> Buffer.add_char b '\012'
        | 'u' ->
          if !pos + 4 > n then fail "bad escape";
          let code = int_of_string ("0x" ^ String.sub text !pos 4) in
          pos := !pos + 4;
          Buffer.add_utf_8_uchar b (Uchar.of_int code)
        | c -> Buffer.add_char b c);
        go ()
      | '\000' when !pos >= n -> fail "unterminated string"
      | c ->
        Buffer.add_char b c;
        incr pos;
        go ()
    in
    go ();
    Buffer.contents b
  in
  let literal word v =
    let len = String.length word in
    if !pos + len <= n && String.sub text !pos len = word then begin
      pos := !pos + len;
      v
    end
    else fail "bad literal"
  in
  let rec value () =
    ws ();
    match peek () with
    | '{' ->
      incr pos;
      ws ();
      if peek () = '}' then (incr pos; Obj [])
      else
        let rec fields acc =
          let k = (ws (); str ()) in
          expect ':';
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            fields ((k, v) :: acc)
          | '}' ->
            incr pos;
            Obj (List.rev ((k, v) :: acc))
          | _ -> fail "expected , or }"
        in
        fields []
    | '[' ->
      incr pos;
      ws ();
      if peek () = ']' then (incr pos; Arr [])
      else
        let rec items acc =
          let v = value () in
          ws ();
          match peek () with
          | ',' ->
            incr pos;
            items (v :: acc)
          | ']' ->
            incr pos;
            Arr (List.rev (v :: acc))
          | _ -> fail "expected , or ]"
        in
        items []
    | '"' -> Str (str ())
    | 't' -> literal "true" (Bool true)
    | 'f' -> literal "false" (Bool false)
    | 'n' -> literal "null" Null
    | _ ->
      let start = !pos in
      while
        !pos < n
        && match text.[!pos] with
           | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
           | _ -> false
      do
        incr pos
      done;
      (match float_of_string_opt (String.sub text start (!pos - start)) with
      | Some f -> Num f
      | None -> fail "bad number")
  in
  let v = value () in
  ws ();
  if !pos <> n then fail "trailing data";
  v

let member k = function Obj kv -> List.assoc_opt k kv | _ -> None

let lines path =
  In_channel.with_open_text path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> String.trim l <> "")

(* Quartiles as Python's [statistics.quantiles(values, n=4)] gives them
   (the "exclusive" method). *)
let quartiles values =
  let a = Array.of_list (List.sort compare values) in
  let ld = Array.length a in
  if ld = 1 then (a.(0), a.(0), a.(0))
  else
    let m = ld + 1 in
    let q i =
      let j = max 1 (min (ld - 1) (i * m / 4)) in
      let delta = (i * m) - (j * 4) in
      ((a.(j - 1) *. float_of_int (4 - delta)) +. (a.(j) *. float_of_int delta)) /. 4.0
    in
    (q 1, q 2, q 3)

type spec = { lower_better : bool; bound : float option }

(* Absolute rise in failed/attempted a change may show. *)
let failure_bound = 0.001

type run = { correct : bool; attempted : int; failed : int; metrics : (string * float) list }

let specs bench =
  let of_list key with_bound =
    match member key bench with
    | Some (Arr items) ->
      List.filter_map
        (fun item ->
          match (member "name" item, member "better" item) with
          | Some (Str name), Some (Str better) ->
            let bound =
              if with_bound then
                match member "bound" item with Some (Num b) -> Some b | _ -> None
              else None
            in
            Some (name, { lower_better = better = "lower"; bound })
          | _ -> None)
        items
    | _ -> []
  in
  of_list "end_to_end" true @ of_list "per_layer" false

(* workload -> runs, in file order *)
let runs path =
  List.fold_left
    (fun acc line ->
      match parse line with
      | Obj workloads ->
        List.fold_left
          (fun acc (wl, result) ->
            let correct = member "correct" result = Some (Bool true) in
            let count k =
              match member k result with Some (Num v) -> int_of_float v | _ -> 0
            in
            let metrics =
              match member "metrics" result with
              | Some (Obj ms) ->
                List.filter_map
                  (fun (name, m) ->
                    match member "value" m with
                    | Some (Num v) -> Some (name, v)
                    | _ -> None)
                  ms
              | _ -> []
            in
            let prev = Option.value (List.assoc_opt wl acc) ~default:[] in
            let r =
              { correct; attempted = count "attempted"; failed = count "failed"; metrics }
            in
            (wl, prev @ [ r ]) :: List.remove_assoc wl acc)
          acc workloads
      | _ -> raise (Bad_json (path ^ ": each line must be a JSON object")))
    [] (lines path)
  |> List.rev

let run ~bench ~base ~change =
  let specs = specs (parse (In_channel.with_open_text bench In_channel.input_all)) in
  let base = runs base and change = runs change in
  let regressions = ref 0 and incorrect = ref 0 in
  Printf.printf "%-13s %-40s %-32s %-32s %9s %7s  %s\n" "workload" "metric"
    "base q1/med/q3" "change q1/med/q3" "delta" "bound" "verdict";
  List.iter
    (fun (wl, base_runs) ->
      let change_runs = Option.value (List.assoc_opt wl change) ~default:[] in
      List.iter (fun r -> if not r.correct then incr incorrect) (base_runs @ change_runs);
      List.iter
        (fun (name, spec) ->
          let values rs = List.filter_map (fun r -> List.assoc_opt name r.metrics) rs in
          let bv = values base_runs and cv = values change_runs in
          if bv <> [] && cv <> [] then begin
            let b1, bm, b3 = quartiles bv and c1, cm, c3 = quartiles cv in
            let scale = if bm = 0.0 then 1.0 else Float.abs bm in
            let delta = (cm -. bm) /. scale in
            let worse = if spec.lower_better then delta else -.delta in
            let spread = (b3 -. b1) /. scale in
            let lo xs = List.fold_left Float.min infinity xs in
            let hi xs = List.fold_left Float.max neg_infinity xs in
            let better_all = if spec.lower_better then hi cv < lo bv else lo cv > hi bv in
            let verdict =
              match spec.bound with
              | None -> "-"
              | Some bound ->
                if spread > bound then if better_all then "better" else "unresolved"
                else if worse > bound then begin
                  incr regressions;
                  "REGRESSION"
                end
                else "ok"
            in
            let bound =
              match spec.bound with
              | Some b -> Printf.sprintf "%.0f%%" (100.0 *. b)
              | None -> "-"
            in
            Printf.printf
              "%-13s %-40s %10.4g/%10.4g/%10.4g %10.4g/%10.4g/%10.4g %+8.2f%% %7s  %s\n"
              wl name b1 bm b3 c1 cm c3 (100.0 *. delta) bound verdict
          end)
        specs;
      if change_runs <> [] then begin
        let rate rs =
          let sum f = List.fold_left (fun n r -> n + f r) 0 rs in
          float_of_int (sum (fun r -> r.failed))
          /. float_of_int (max 1 (sum (fun r -> r.attempted)))
        in
        let br = rate base_runs and cr = rate change_runs in
        let verdict =
          if cr -. br > failure_bound then begin
            incr regressions;
            "REGRESSION"
          end
          else "ok"
        in
        Printf.printf "%-13s %-40s %32.4g %32.4g %+8.4f %7s  %s\n" wl "failed/attempted"
          br cr (cr -. br)
          (Printf.sprintf "+%g" failure_bound)
          verdict
      end)
    base;
  if !incorrect > 0 then Printf.printf "%d run(s) reported correct=false\n" !incorrect;
  Printf.printf "%d regression(s)\n%!" !regressions;
  !regressions = 0 && !incorrect = 0
