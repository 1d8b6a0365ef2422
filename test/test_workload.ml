(* Workload generator and failure-injection tests over both backends. *)

let ms = Helpers.ms
let s = Helpers.s

let test_open_loop_measures_latency () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"c1" ~region:"r1"
      ~client_latency:(100.0 *. Sim.Engine.us) ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:500.0;
  Myraft.Cluster.run_for cluster (5.0 *. s);
  Workload.Generator.stop gen;
  Myraft.Cluster.run_for cluster (1.0 *. s);
  let st = Workload.Generator.stats gen in
  Alcotest.(check bool) "enough commits" true (st.Workload.Generator.committed > 1000);
  Alcotest.(check int) "no rejects in steady state" 0 st.Workload.Generator.rejected;
  let h = st.Workload.Generator.latencies in
  (* latency must include the ~200us client RTT plus the commit path *)
  Alcotest.(check bool) "plausible latency floor" true
    (Stats.Histogram.min_value h > 200.0);
  Alcotest.(check bool) "plausible latency ceiling" true
    (Stats.Histogram.percentile h 99.0 < 50_000.0)

let test_closed_loop_throughput_scales_with_threads () =
  let run threads =
    let cluster =
      Helpers.bootstrapped ~seed:(100 + threads)
        ~members:(Myraft.Cluster.small_members ()) ()
    in
    let backend = Workload.Backend.myraft cluster in
    let gen =
      Workload.Generator.create ~backend ~client_id:"c1" ~region:"r1"
        ~client_latency:(5.0 *. Sim.Engine.us) ()
    in
    Workload.Generator.start_closed_loop gen ~threads;
    Myraft.Cluster.run_for cluster (5.0 *. s);
    Workload.Generator.stop gen;
    (Workload.Generator.stats gen).Workload.Generator.committed
  in
  let one = run 1 and eight = run 8 in
  Alcotest.(check bool)
    (Printf.sprintf "8 threads (%d) beat 1 thread (%d)" eight one)
    true
    (float_of_int eight > 2.0 *. float_of_int one)

let test_open_loop_survives_failover () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"c1" ~region:"r1"
      ~client_latency:(100.0 *. Sim.Engine.us) ~write_timeout:(3.0 *. s) ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:200.0;
  Myraft.Cluster.run_for cluster (2.0 *. s);
  Myraft.Cluster.crash cluster "mysql1";
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(30.0 *. s) (fun () ->
         match Myraft.Cluster.primary cluster with
         | Some srv -> Myraft.Server.id srv <> "mysql1"
         | None -> false));
  Myraft.Cluster.run_for cluster (5.0 *. s);
  Workload.Generator.stop gen;
  let st = Workload.Generator.stats gen in
  (* the generator keeps issuing and commits resume on the new primary *)
  Alcotest.(check bool) "losses during failover" true
    (st.Workload.Generator.timed_out + st.Workload.Generator.rejected > 0);
  Alcotest.(check bool) "commits resumed" true
    (st.Workload.Generator.committed > st.Workload.Generator.timed_out)

let test_generator_against_semisync_backend () =
  let members = Myraft.Cluster.single_region_members () in
  let ss = Semisync.Cluster.create ~seed:3 ~replicaset:"wk" ~members () in
  Semisync.Cluster.bootstrap ss ~leader_id:"mysql1";
  let backend = Workload.Backend.semisync ss in
  let gen =
    Workload.Generator.create ~backend ~client_id:"c1" ~region:"r1"
      ~client_latency:(100.0 *. Sim.Engine.us) ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:300.0;
  Semisync.Cluster.run_for ss (3.0 *. s);
  Workload.Generator.stop gen;
  Semisync.Cluster.run_for ss (1.0 *. s);
  Alcotest.(check bool) "semisync backend commits" true
    ((Workload.Generator.stats gen).Workload.Generator.committed > 500)

let test_failure_injection_preserves_consistency () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.single_region_members ()) () in
  let backend = Workload.Backend.myraft cluster in
  let gen =
    Workload.Generator.create ~backend ~client_id:"load" ~region:"r1"
      ~client_latency:(100.0 *. Sim.Engine.us) ~write_timeout:(10.0 *. s) ()
  in
  Workload.Generator.start_open_loop gen ~rate_per_s:100.0;
  let injector =
    Workload.Failure_injection.start cluster ~kind:Workload.Failure_injection.Crash_leader
      ~interval:(10.0 *. s) ~restart_after:(4.0 *. s)
  in
  Myraft.Cluster.run_for cluster (35.0 *. s);
  Workload.Failure_injection.stop injector;
  Workload.Generator.stop gen;
  ignore
    (Myraft.Cluster.run_until cluster ~timeout:(60.0 *. s) (fun () ->
         Myraft.Cluster.primary cluster <> None));
  Myraft.Cluster.run_for cluster (10.0 *. s);
  Alcotest.(check bool) "injections happened" true
    (Workload.Failure_injection.injections injector >= 2);
  match Workload.Failure_injection.consistency_check cluster with
  | Ok n -> Alcotest.(check bool) "progress" true (n > 0)
  | Error e -> Alcotest.failf "divergence: %s" e

let test_shadow_trace_deterministic () =
  let t1 = Workload.Shadow.record ~seed:9 ~rate_per_s:100.0 ~duration:(2.0 *. s) () in
  let t2 = Workload.Shadow.record ~seed:9 ~rate_per_s:100.0 ~duration:(2.0 *. s) () in
  Alcotest.(check int) "same length" (Workload.Shadow.length t1) (Workload.Shadow.length t2);
  Alcotest.(check int) "same bytes" (Workload.Shadow.total_bytes t1)
    (Workload.Shadow.total_bytes t2);
  Alcotest.(check bool) "plausible op count" true
    (abs (Workload.Shadow.length t1 - 200) < 60)

let test_shadow_replay_identical_on_both_stacks () =
  let trace = Workload.Shadow.record ~seed:10 ~rate_per_s:200.0 ~duration:(3.0 *. s) () in
  (* MyRaft side *)
  let my_cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let my_gen =
    Workload.Shadow.replay trace ~backend:(Workload.Backend.myraft my_cluster)
      ~region:"r1" ~client_latency:(100.0 *. Sim.Engine.us)
  in
  Myraft.Cluster.run_for my_cluster (5.0 *. s);
  (* Semi-sync side *)
  let ss_cluster =
    Semisync.Cluster.create ~seed:10 ~replicaset:"ss"
      ~members:(Myraft.Cluster.single_region_members ()) ()
  in
  Semisync.Cluster.bootstrap ss_cluster ~leader_id:"mysql1";
  let ss_gen =
    Workload.Shadow.replay trace ~backend:(Workload.Backend.semisync ss_cluster)
      ~region:"r1" ~client_latency:(100.0 *. Sim.Engine.us)
  in
  Semisync.Cluster.run_for ss_cluster (5.0 *. s);
  let my_st = Workload.Generator.stats my_gen and ss_st = Workload.Generator.stats ss_gen in
  (* identical inputs on both stacks *)
  Alcotest.(check int) "same issued" my_st.Workload.Generator.issued
    ss_st.Workload.Generator.issued;
  Alcotest.(check int) "myraft committed all" (Workload.Shadow.length trace)
    my_st.Workload.Generator.committed;
  Alcotest.(check int) "semisync committed all" (Workload.Shadow.length trace)
    ss_st.Workload.Generator.committed;
  (* identical keys landed: the hottest rows exist on both primaries *)
  let my_primary = Option.get (Myraft.Cluster.primary my_cluster) in
  let ss_primary = Option.get (Semisync.Cluster.primary ss_cluster) in
  List.iter
    (fun op ->
      let key = op.Workload.Shadow.key in
      Alcotest.(check bool)
        ("key " ^ key ^ " on both")
        true
        (Storage.Engine.get (Myraft.Server.storage my_primary) ~table:"shadow" ~key <> None
        && Storage.Engine.get (Semisync.Server.storage ss_primary) ~table:"shadow" ~key
           <> None))
    (Workload.Shadow.ops trace)

(* Key-skew knob: draw a large sample from each distribution and check
   its shape.  Pure generator-side test — no cluster traffic needed. *)
let test_key_dist_shapes () =
  let cluster = Helpers.bootstrapped ~members:(Myraft.Cluster.small_members ()) () in
  let backend = Workload.Backend.myraft cluster in
  let sample name key_dist =
    let gen =
      Workload.Generator.create ~backend ~client_id:("dist-" ^ name) ~region:"r1"
        ~key_space:100 ~key_dist ()
    in
    let counts = Array.make 100 0 in
    for _ = 1 to 20_000 do
      let i = Workload.Generator.draw_key_index gen in
      Alcotest.(check bool) "index in range" true (i >= 0 && i < 100);
      counts.(i) <- counts.(i) + 1
    done;
    counts
  in
  (* uniform: every key within 3x of the 200-expected mean *)
  let u = sample "uniform" Workload.Generator.Uniform in
  Array.iteri
    (fun i c ->
      Alcotest.(check bool)
        (Printf.sprintf "uniform key %d plausible (%d)" i c)
        true
        (c > 66 && c < 600))
    u;
  (* zipf(1.0): rank 0 hottest, heavily skewed, long tail still sampled *)
  let z = sample "zipf" (Workload.Generator.Zipf 1.0) in
  Alcotest.(check bool) "zipf head dominates" true (z.(0) > 3 * z.(9));
  Alcotest.(check bool)
    (Printf.sprintf "zipf head is hot (%d)" z.(0))
    true
    (z.(0) > 2_000);
  Alcotest.(check bool) "zipf monotone-ish head" true (z.(0) > z.(1) && z.(1) > z.(4));
  (* hot-spot: 90% of draws land on the first 5 keys *)
  let h = sample "hotspot" (Workload.Generator.Hot_spot { hot_fraction = 0.9; hot_keys = 5 }) in
  let hot = Array.fold_left ( + ) 0 (Array.sub h 0 5) in
  Alcotest.(check bool)
    (Printf.sprintf "hot spot concentrates (%d/20000)" hot)
    true
    (hot > 17_000 && hot < 19_500);
  Alcotest.(check bool) "cold tail still sampled" true (Array.exists (fun c -> c > 0) (Array.sub h 5 95))

(* A backend that records what the generator sends and answers only when
   the test says so. *)
let manual_backend engine =
  let on_write = ref (fun ~write_id:_ ~ok:_ ~gtid:_ -> ()) in
  let on_read = ref (fun ~read_id:_ ~outcome:_ -> ()) in
  let backend =
    {
      Workload.Backend.engine;
      label = "manual";
      register_client =
        (fun ~id:_ ~region:_ ~on_reply ~on_read_reply ->
          on_write := on_reply;
          on_read := on_read_reply);
      send_write = (fun ~client:_ ~write_id:_ ~table:_ ~ops:_ -> true);
      send_read = (fun ~client:_ ~read_id:_ ~level:_ ~table:_ ~key:_ ~target:_ -> true);
      read_targets = (fun () -> []);
      set_client_latency = (fun ~client:_ ~latency:_ -> ());
      member_ids = (fun () -> []);
    }
  in
  (backend, on_write, on_read)

(* Requests go out at irregular instants; every third one is never
   answered, the rest are answered shortly after.  Each stuck request
   must settle as a timeout at exactly its send time plus the timeout
   (not a rounding of it), and no answered one may time out — however
   the answered and stuck ids interleave.  [n] requests go out [gap]
   apart. *)
let times_out_exactly ~n ~gap () =
  let engine = Sim.Engine.create ~seed:5 () in
  let backend, on_write, on_read = manual_backend engine in
  let write_timeout = 5.0 *. s and read_timeout = 0.3 *. s in
  let gen =
    Workload.Generator.create ~backend ~client_id:"c" ~region:"r1" ~write_timeout
      ~read_timeout ()
  in
  let writes = Array.make (n + 1) [] and reads = Array.make (n + 1) [] in
  let sent_w = Array.make (n + 1) nan and sent_r = Array.make (n + 1) nan in
  for id = 1 to n do
    (* 0.1 and 0.7 are not representable: sums of them round *)
    ignore
      (Sim.Engine.schedule engine ~delay:(float_of_int id *. gap) (fun () ->
           sent_w.(id) <- Sim.Engine.now engine;
           Workload.Generator.issue_op gen ~table:"t" ~key:"k" ~value_size:16 ~k:(fun ok ->
               writes.(id) <- (ok, Sim.Engine.now engine) :: writes.(id));
           sent_r.(id) <- Sim.Engine.now engine;
           Workload.Generator.issue_read gen ~table:"t" ~key:"k" ~k:(fun outcome ->
               let ok = match outcome with Workload.Backend.Read_value _ -> true | _ -> false in
               reads.(id) <- (ok, Sim.Engine.now engine) :: reads.(id));
           if id mod 3 <> 0 then
             ignore
               (Sim.Engine.schedule engine ~delay:(0.7 *. ms) (fun () ->
                    !on_write ~write_id:id ~ok:true ~gtid:None;
                    !on_read ~read_id:id ~outcome:(Workload.Backend.Read_value None)))))
  done;
  Sim.Engine.run_until engine (20.0 *. s);
  let check kind settled sent timeout =
    for id = 1 to n do
      match settled.(id) with
      | [ (ok, at) ] ->
        if id mod 3 = 0 then begin
          Alcotest.(check bool) (Printf.sprintf "%s %d timed out" kind id) false ok;
          Alcotest.(check bool)
            (Printf.sprintf "%s %d at sent_at + timeout" kind id)
            true
            (at = sent.(id) +. timeout)
        end
        else Alcotest.(check bool) (Printf.sprintf "%s %d answered" kind id) true ok
      | l -> Alcotest.failf "%s %d settled %d times" kind id (List.length l)
    done
  in
  check "write" writes sent_w write_timeout;
  check "read" reads sent_r read_timeout;
  let st = Workload.Generator.stats gen in
  Alcotest.(check int) "write timeouts" (n / 3) st.Workload.Generator.timed_out;
  Alcotest.(check int) "read timeouts" (n / 3) st.Workload.Generator.reads_timed_out;
  Alcotest.(check int) "no timer left behind" 0 (Sim.Engine.pending engine)

let test_generator_times_out_exactly = times_out_exactly ~n:60 ~gap:(0.1 *. ms)

(* Enough requests, spread over more than one read timeout, that the
   lanes' rings grow while stuck ids hold the oldest slot, and ids wrap
   around them as timeouts free it. *)
let test_generator_times_out_across_ring_growth =
  times_out_exactly ~n:3_000 ~gap:(0.2 *. ms)

(* Every payload of a size holds the same bytes, so a generator makes
   one string per size and every write of that size shares it.  The
   table is the generator's own: another generator makes its own
   strings. *)
let test_payloads_shared_per_size () =
  let engine = Sim.Engine.create ~seed:3 () in
  let sent = ref "" in
  let backend, _, _ = manual_backend engine in
  let backend =
    { backend with
      Workload.Backend.send_write =
        (fun ~client:_ ~write_id:_ ~table:_ ~ops ->
          (match ops with
          | [ Binlog.Event.Insert { value; _ } ] -> sent := value
          | _ -> Alcotest.fail "not a one-row insert");
          true) }
  in
  let make id = Workload.Generator.create ~backend ~client_id:id ~region:"r1" () in
  let a = make "c1" and b = make "c2" in
  let payload gen size =
    Workload.Generator.issue_op gen ~table:"t" ~key:"k" ~value_size:size;
    !sent
  in
  for size = 16 to 2000 do
    let p = payload a size in
    if String.length p <> size then Alcotest.failf "size %d: length %d" size (String.length p);
    if not (String.for_all (Char.equal 'd') p) then Alcotest.failf "size %d: bytes" size;
    if payload a size != p then Alcotest.failf "size %d: not shared" size;
    if payload b size == p then Alcotest.failf "size %d: shared across generators" size
  done

let suites =
  [
    ( "workload.shadow",
      [
        Alcotest.test_case "trace recording deterministic" `Quick
          test_shadow_trace_deterministic;
        Alcotest.test_case "replay identical on both stacks" `Quick
          test_shadow_replay_identical_on_both_stacks;
      ] );
    ( "workload",
      [
        Alcotest.test_case "open loop measures latency" `Quick test_open_loop_measures_latency;
        Alcotest.test_case "closed loop scales with threads" `Quick
          test_closed_loop_throughput_scales_with_threads;
        Alcotest.test_case "open loop survives failover" `Quick test_open_loop_survives_failover;
        Alcotest.test_case "semisync backend" `Quick test_generator_against_semisync_backend;
        Alcotest.test_case "failure injection keeps consistency" `Quick
          test_failure_injection_preserves_consistency;
        Alcotest.test_case "key distribution shapes" `Quick test_key_dist_shapes;
        Alcotest.test_case "timeouts fire exactly, settled ids never" `Quick
          test_generator_times_out_exactly;
        Alcotest.test_case "timeouts fire exactly across ring growth" `Quick
          test_generator_times_out_across_ring_growth;
        Alcotest.test_case "one payload string per size" `Quick
          test_payloads_shared_per_size;
      ] );
  ]
