(* Shared helpers for the test suites. *)

let ms = Sim.Engine.ms
let s = Sim.Engine.s

(* Build and bootstrap a cluster, returning it with mysql1 as primary. *)
let bootstrapped ?(seed = 11) ?(params = Myraft.Params.default) ~members () =
  let cluster = Myraft.Cluster.create ~seed ~params ~replicaset:"rs-test" ~members () in
  Myraft.Cluster.bootstrap cluster ~leader_id:"mysql1";
  cluster

(* Synchronous-looking write: submit through an ephemeral client-less
   direct call and run the engine until the outcome arrives. *)
let direct_write ?(table = "t") ?(timeout = 5.0 *. s) cluster ~key ~value =
  match Myraft.Cluster.primary cluster with
  | None -> Error "no primary"
  | Some server ->
    let result = ref None in
    Myraft.Server.submit_write server ~table
      ~ops:[ Binlog.Event.Insert { key; value } ]
      ~reply:(fun outcome -> result := Some outcome);
    let ok =
      Myraft.Cluster.run_until cluster ~step:ms ~timeout (fun () -> !result <> None)
    in
    if not ok then Error "write timed out"
    else
      match !result with
      | Some (Myraft.Wire.Committed _) -> Ok ()
      | Some (Myraft.Wire.Rejected reason) -> Error reason
      | None -> Error "unreachable"

(* Substring search (no external deps). *)
let contains s sub =
  let n = String.length s and m = String.length sub in
  m = 0
  ||
  let rec at i = i + m <= n && (String.sub s i m = sub || at (i + 1)) in
  at 0

let check_ok label = function
  | Ok () -> ()
  | Error e -> Alcotest.failf "%s: %s" label e

(* Run [n] writes with distinct keys; returns how many committed. *)
let write_n ?(prefix = "k") cluster n =
  let committed = ref 0 in
  for i = 1 to n do
    match direct_write cluster ~key:(Printf.sprintf "%s%d" prefix i) ~value:"v" with
    | Ok () -> incr committed
    | Error _ -> ()
  done;
  !committed

(* The in-flight window gauge of a bare leader. *)
let window_gauge (h : Kit.Bare.leader) =
  Obs.Metrics.gauge_value
    (Obs.Metrics.gauge (Raft.Node.metrics h.node) "raft.window_inflight")
