(* Simulation kernel tests: RNG determinism, event queue ordering,
   engine scheduling semantics, network delivery/partitions/accounting. *)

let test_rng_deterministic () =
  let a = Sim.Rng.of_int 42 and b = Sim.Rng.of_int 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Sim.Rng.next_int64 a) (Sim.Rng.next_int64 b)
  done

let test_rng_split_independent () =
  let parent = Sim.Rng.of_int 42 in
  let child = Sim.Rng.split parent in
  let v1 = Sim.Rng.next_int64 child in
  (* Drawing from the parent must not affect an already-split child's
     determinism relative to an identical reconstruction. *)
  let parent2 = Sim.Rng.of_int 42 in
  let child2 = Sim.Rng.split parent2 in
  Alcotest.(check int64) "split deterministic" v1 (Sim.Rng.next_int64 child2)

(* Fixed draws of the SplitMix64 streams.  Every seeded run depends on
   them, so a change to the generator's representation must leave each
   draw bit-identical. *)
let test_rng_known_answers () =
  let r = Sim.Rng.of_int 42 in
  List.iter
    (fun v -> Alcotest.(check int64) "next_int64" v (Sim.Rng.next_int64 r))
    [ -4767286540954276203L; 2949826092126892291L; 5139283748462763858L; 6349198060258255764L ];
  Alcotest.(check (float 0.)) "float" 0x1.378b0b448904p-5 (Sim.Rng.float r);
  Alcotest.(check int) "int 1000" 350 (Sim.Rng.int r 1000);
  Alcotest.(check (float 0.)) "uniform 90..180" 0x1.b6a038ffc155fp+6
    (Sim.Rng.uniform r ~lo:90. ~hi:180.);
  Alcotest.(check (float 0.)) "exponential mean 500" 0x1.bcb541bd9bffcp+6
    (Sim.Rng.exponential r ~mean:500.);
  let child = Sim.Rng.split r in
  Alcotest.(check int64) "split child, first" 883429976846387302L (Sim.Rng.next_int64 child);
  Alcotest.(check int64) "split child, second" 4526355970653638925L (Sim.Rng.next_int64 child)

let test_rng_float_range () =
  let rng = Sim.Rng.of_int 1 in
  for _ = 1 to 10_000 do
    let f = Sim.Rng.float rng in
    if f < 0.0 || f >= 1.0 then Alcotest.failf "float out of range: %f" f
  done

let test_rng_int_bound () =
  let rng = Sim.Rng.of_int 2 in
  for _ = 1 to 10_000 do
    let v = Sim.Rng.int rng 7 in
    if v < 0 || v >= 7 then Alcotest.failf "int out of range: %d" v
  done

let test_rng_exponential_mean () =
  let rng = Sim.Rng.of_int 3 in
  let n = 50_000 in
  let sum = ref 0.0 in
  for _ = 1 to n do
    sum := !sum +. Sim.Rng.exponential rng ~mean:10.0
  done;
  let mean = !sum /. float_of_int n in
  if abs_float (mean -. 10.0) > 0.5 then Alcotest.failf "exponential mean off: %f" mean

(* Schedule [f id ()] after [delay] as the [i]-th event: a thunk, a
   call event or a call whose delay comes in a cell, in turn, so each
   ordering test covers the three kinds. *)
let schedule_nth e cell i ~delay f id =
  match i mod 3 with
  | 0 -> ignore (Sim.Engine.schedule e ~delay (fun () -> f id ()))
  | 1 -> ignore (Sim.Engine.schedule_call e ~delay f id ())
  | _ ->
    cell.Sim.Engine.delay <- delay;
    ignore (Sim.Engine.schedule_call_cell e cell f id ())

let test_engine_key_order () =
  let e = Sim.Engine.create () in
  let cell = { Sim.Engine.delay = 0.0 } in
  let rng = Sim.Rng.of_int 4 in
  let last = ref neg_infinity and count = ref 0 in
  let fired key () =
    if key < !last then Alcotest.fail "key order violated";
    if Sim.Engine.now e <> key then
      Alcotest.failf "fired at %h, keyed %h" (Sim.Engine.now e) key;
    last := key;
    incr count
  in
  for i = 1 to 1000 do
    let delay = 1_000.0 *. Sim.Rng.float rng in
    schedule_nth e cell i ~delay fired delay
  done;
  Sim.Engine.run_until e 1_000.0;
  Alcotest.(check int) "all fired" 1000 !count;
  Alcotest.(check int) "queue empty" 0 (Sim.Engine.queue_length e)

let test_engine_fifo_ties () =
  let e = Sim.Engine.create () in
  let cell = { Sim.Engine.delay = 0.0 } in
  let order = ref [] in
  let fired i () = order := i :: !order in
  for i = 1 to 50 do
    schedule_nth e cell i ~delay:1.0 fired i
  done;
  Sim.Engine.run_until e 2.0;
  Alcotest.(check (list int)) "tie broken by scheduling order" (List.init 50 succ)
    (List.rev !order)

let test_engine_ordering () =
  let e = Sim.Engine.create () in
  let order = ref [] in
  ignore (Sim.Engine.schedule e ~delay:30.0 (fun () -> order := 3 :: !order));
  ignore (Sim.Engine.schedule e ~delay:10.0 (fun () -> order := 1 :: !order));
  ignore (Sim.Engine.schedule e ~delay:20.0 (fun () -> order := 2 :: !order));
  Sim.Engine.run_until e 100.0;
  Alcotest.(check (list int)) "fired in time order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check (float 0.001)) "time at horizon" 100.0 (Sim.Engine.now e)

let test_engine_cancel () =
  let e = Sim.Engine.create () in
  let fired = ref false and other = ref false in
  let h = Sim.Engine.schedule e ~delay:5.0 (fun () -> fired := true) in
  let h2 = Sim.Engine.schedule e ~delay:5.0 (fun () -> other := true) in
  Sim.Engine.cancel h;
  Alcotest.(check int) "cancelled event is not pending" 1 (Sim.Engine.pending e);
  Sim.Engine.run_until e 10.0;
  Alcotest.(check bool) "cancelled event did not fire" false !fired;
  Alcotest.(check bool) "live event fired" true !other;
  Sim.Engine.cancel h2;
  Alcotest.(check bool) "cancelled before firing" true (Sim.Engine.cancelled h);
  Alcotest.(check bool) "cancel after firing is a no-op" false (Sim.Engine.cancelled h2);
  Alcotest.(check int) "nothing pending" 0 (Sim.Engine.pending e)

let test_engine_call_event () =
  let e = Sim.Engine.create () in
  let got = ref [] in
  let record name n = got := (name, n, Sim.Engine.now e) :: !got in
  ignore (Sim.Engine.schedule_call e ~delay:7.0 record "seven" 7);
  let h = Sim.Engine.schedule_call e ~delay:3.0 record "cancelled" 3 in
  ignore (Sim.Engine.schedule_call e ~delay:2.0 record "two" 2);
  Sim.Engine.cancel h;
  Alcotest.(check bool) "call handle cancelled" true (Sim.Engine.cancelled h);
  Alcotest.(check int) "two live" 2 (Sim.Engine.pending e);
  Sim.Engine.run_until e 10.0;
  Alcotest.(check (list (triple string int (float 0.))))
    "each call gets its two arguments, at its time"
    [ ("two", 2, 2.0); ("seven", 7, 7.0) ]
    (List.rev !got)

let test_engine_nested_schedule () =
  let e = Sim.Engine.create () in
  let times = ref [] in
  ignore
    (Sim.Engine.schedule e ~delay:5.0 (fun () ->
         times := Sim.Engine.now e :: !times;
         ignore
           (Sim.Engine.schedule e ~delay:5.0 (fun () ->
                times := Sim.Engine.now e :: !times))));
  Sim.Engine.run_until e 100.0;
  Alcotest.(check (list (float 0.001))) "nested timing" [ 5.0; 10.0 ] (List.rev !times)

let test_engine_run_until_horizon () =
  let e = Sim.Engine.create () in
  let fired = ref false in
  ignore (Sim.Engine.schedule e ~delay:50.0 (fun () -> fired := true));
  Sim.Engine.run_until e 20.0;
  Alcotest.(check bool) "future event pending" false !fired;
  Sim.Engine.run_until e 60.0;
  Alcotest.(check bool) "fires after horizon advance" true !fired

(* The engine's queue against a reference that keeps every cancelled
   event queued and skips it at pop, as a flag-only engine does.  Ops
   include cancels issued from inside callbacks and cancels of handles
   that already fired; bursts of cancels push the dead count past the
   compaction floor.  Each schedule is a thunk or a call event ([call]),
   so same-instant ties, cancels and compactions mix the two kinds.  Both
   engines run the same ops in lockstep. *)
type engine_op =
  | Schedule of bool * int (* call; delay *)
  | Schedule_canceller of bool * int * int (* call; delay; when it fires, cancel this handle *)
  | Cancel of int (* handle number, modulo handles issued so far *)
  | Cancel_burst of int * int (* schedule this many, then cancel all but every k-th *)
  | Advance of int

let engine_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map2 (fun c d -> Schedule (c, d)) bool (int_range 0 60));
        (2, map3 (fun c d v -> Schedule_canceller (c, d, v)) bool (int_range 0 60) nat);
        (3, map (fun i -> Cancel i) nat);
        (1, map2 (fun n k -> Cancel_burst (n, k)) (int_range 1 200) (int_range 2 50));
        (2, map (fun d -> Advance d) (int_range 0 40));
      ])

let print_engine_op = function
  | Schedule (c, d) -> Printf.sprintf "Schedule (%b, %d)" c d
  | Schedule_canceller (c, d, v) -> Printf.sprintf "Schedule_canceller (%b, %d, %d)" c d v
  | Cancel i -> Printf.sprintf "Cancel %d" i
  | Cancel_burst (n, k) -> Printf.sprintf "Cancel_burst (%d, %d)" n k
  | Advance d -> Printf.sprintf "Advance %d" d

(* The reference: a list scanned for its (key, seq) minimum. *)
type ref_event = {
  r_key : float;
  r_seq : int;
  r_fn : unit -> unit;
  mutable r_dead : bool;
}

type ref_engine = {
  mutable r_now : float;
  mutable r_next : int;
  mutable r_queue : ref_event list;
}

let ref_schedule r ~delay fn =
  r.r_next <- r.r_next + 1;
  let ev = { r_key = r.r_now +. delay; r_seq = r.r_next; r_fn = fn; r_dead = false } in
  r.r_queue <- ev :: r.r_queue;
  ev

let rec ref_run_until r limit =
  let earlier a b = a.r_key < b.r_key || (a.r_key = b.r_key && a.r_seq < b.r_seq) in
  match r.r_queue with
  | [] -> r.r_now <- max r.r_now limit
  | first :: rest ->
    let ev = List.fold_left (fun m e -> if earlier e m then e else m) first rest in
    if ev.r_key > limit then r.r_now <- max r.r_now limit
    else begin
      r.r_queue <- List.filter (fun e -> e != ev) r.r_queue;
      r.r_now <- ev.r_key;
      if not ev.r_dead then begin
        ev.r_dead <- true;
        ev.r_fn ()
      end;
      ref_run_until r limit
    end

(* Interpret [ops] against one engine, given as its schedule, cancel and
   run functions; [schedule ~call ~delay f id victim] queues [f id
   victim].  Returns the firing log and [probe ()] taken after every
   op. *)
let interpret ops ~schedule ~cancel ~run_until ~now ~probe =
  let handles = Hashtbl.create 64 and issued = ref 0 in
  let log = ref [] and probes = ref [] in
  let cancel_nth i = if !issued > 0 then cancel (Hashtbl.find handles (i mod !issued)) in
  let fired id victim =
    log := id :: !log;
    Option.iter cancel_nth victim
  in
  let schedule_logged ~call ~delay victim =
    let id = !issued in
    incr issued;
    Hashtbl.replace handles id (schedule ~call ~delay:(float_of_int delay) fired id victim)
  in
  List.iter
    (fun op ->
      (match op with
      | Schedule (call, d) -> schedule_logged ~call ~delay:d None
      | Schedule_canceller (call, d, v) -> schedule_logged ~call ~delay:d (Some v)
      | Cancel i -> cancel_nth i
      | Cancel_burst (n, k) ->
        let first = !issued in
        for j = 0 to n - 1 do
          schedule_logged ~call:(j mod 2 = 1) ~delay:(j mod 50) None
        done;
        for j = 0 to n - 1 do
          if j mod k <> 0 then cancel_nth (first + j)
        done
      | Advance d -> run_until (now () +. float_of_int d));
      probes := probe () :: !probes)
    ops;
  run_until (now () +. 1_000.0);
  (List.rev !log, List.rev (probe () :: !probes))

let prop_engine_matches_reference =
  QCheck.Test.make ~name:"engine queue matches a skip-at-pop reference" ~count:200
    QCheck.(
      make ~print:(Print.list print_engine_op)
        Gen.(list_size (int_range 1 80) engine_op_gen))
    (fun ops ->
      let r = { r_now = 0.0; r_next = 0; r_queue = [] } in
      let expected =
        interpret ops
          ~schedule:(fun ~call:_ ~delay f a b -> ref_schedule r ~delay (fun () -> f a b))
          ~cancel:(fun ev -> ev.r_dead <- true)
          ~run_until:(ref_run_until r)
          ~now:(fun () -> r.r_now)
          ~probe:(fun () -> List.length (List.filter (fun ev -> not ev.r_dead) r.r_queue))
      in
      let e = Sim.Engine.create () in
      let bounded = ref true in
      let actual =
        interpret ops
          ~schedule:(fun ~call ~delay f a b ->
            if call then Sim.Engine.schedule_call e ~delay f a b
            else Sim.Engine.schedule e ~delay (fun () -> f a b))
          ~cancel:Sim.Engine.cancel
          ~run_until:(Sim.Engine.run_until e)
          ~now:(fun () -> Sim.Engine.now e)
          ~probe:(fun () ->
            let live = Sim.Engine.pending e in
            if Sim.Engine.queue_length e > (2 * live) + Sim.Engine.compaction_floor then
              bounded := false;
            live)
      in
      (* firing order, then pending = live after every op *)
      fst expected = fst actual && snd expected = snd actual && !bounded)

(* A burst of cancels compacts the queue down to the live events. *)
let test_engine_compaction () =
  let e = Sim.Engine.create () in
  let fired = ref [] in
  let handles =
    Array.init 1_000 (fun i ->
        Sim.Engine.schedule e ~delay:(float_of_int (1_000 - i)) (fun () ->
            fired := i :: !fired))
  in
  Array.iteri (fun i h -> if i mod 100 <> 0 then Sim.Engine.cancel h) handles;
  Alcotest.(check int) "live events" 10 (Sim.Engine.pending e);
  let queued = Sim.Engine.queue_length e in
  if queued > 20 + Sim.Engine.compaction_floor then
    Alcotest.failf "queue holds %d entries for 10 live events" queued;
  Sim.Engine.run_until e 2_000.0;
  Alcotest.(check (list int)) "live events fire in key order"
    [ 0; 100; 200; 300; 400; 500; 600; 700; 800; 900 ] !fired

let make_net ?(latency = Sim.Latency.fixed ~same:100.0 ~cross:10_000.0) () =
  let e = Sim.Engine.create () in
  let topo = Sim.Topology.create () in
  Sim.Topology.add_node topo ~id:"a" ~region:"r1";
  Sim.Topology.add_node topo ~id:"b" ~region:"r1";
  Sim.Topology.add_node topo ~id:"c" ~region:"r2";
  let net = Sim.Network.create e topo ~latency () in
  (e, net)

let test_network_delivery () =
  let e, net = make_net () in
  let got = ref [] in
  Sim.Network.register net "b" (fun ~src msg -> got := (src, msg) :: !got);
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:100 "hello";
  Sim.Engine.run_until e 1_000.0;
  Alcotest.(check (list (pair string string))) "delivered" [ ("a", "hello") ] !got

let test_network_latency_applied () =
  let e, net = make_net () in
  let at = ref 0.0 in
  Sim.Network.register net "c" (fun ~src:_ _ -> at := Sim.Engine.now e);
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:10 "x";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check (float 0.001)) "cross-region latency" 10_000.0 !at

let test_network_down_node_drops () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net "b" (fun ~src:_ _ -> incr got);
  Sim.Network.set_down net "b";
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "x";
  Sim.Engine.run_until e 1_000.0;
  Alcotest.(check int) "dropped to down node" 0 !got;
  Sim.Network.set_up net "b";
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "y";
  Sim.Engine.run_until e 2_000.0;
  Alcotest.(check int) "delivered after set_up" 1 !got

let test_network_partition () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net "c" (fun ~src:_ _ -> incr got);
  Sim.Network.cut_regions net "r1" "r2";
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:10 "x";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check int) "partitioned" 0 !got;
  Sim.Network.heal_regions net "r1" "r2";
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:10 "y";
  Sim.Engine.run_until e 200_000.0;
  Alcotest.(check int) "healed" 1 !got

let test_network_isolate_node () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net "b" (fun ~src:_ _ -> incr got);
  Sim.Network.isolate_node net "a";
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "x";
  Sim.Engine.run_until e 1_000.0;
  Alcotest.(check int) "isolated sender drops" 0 !got

let test_network_fault_drop_accounting () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net "b" (fun ~src:_ _ -> incr got);
  Sim.Network.set_node_faults net "a" { Sim.Network.no_faults with drop = 1.0 };
  for _ = 1 to 20 do
    Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "x"
  done;
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check int) "all lost" 0 !got;
  Alcotest.(check int) "fault_dropped counts them" 20 (Sim.Network.fault_dropped net);
  Alcotest.(check int) "dropped counter fed too" 20 (Sim.Network.dropped net)

let test_network_fault_duplicate_delivers_twice () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net "b" (fun ~src:_ _ -> incr got);
  Sim.Network.set_link_faults net ~src:"a" ~dst:"b"
    { Sim.Network.no_faults with duplicate = 1.0; reorder_delay = 50.0 };
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "x";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check int) "two copies" 2 !got;
  Alcotest.(check int) "duplicated counter" 1 (Sim.Network.duplicated net)

(* Fault rolls come from a split RNG keyed by the engine seed: the same
   seed must produce the same losses, duplicates and delivery times. *)
let test_network_fault_determinism () =
  let observe () =
    let e = Sim.Engine.create ~seed:77 () in
    let topo = Sim.Topology.create () in
    Sim.Topology.add_node topo ~id:"a" ~region:"r1";
    Sim.Topology.add_node topo ~id:"b" ~region:"r1";
    let net = Sim.Network.create e topo ~latency:(Sim.Latency.fixed ~same:100.0 ~cross:100.0) () in
    let log = ref [] in
    Sim.Network.register net "b" (fun ~src:_ msg -> log := (msg, Sim.Engine.now e) :: !log);
    Sim.Network.set_node_faults net "a"
      { Sim.Network.drop = 0.2; duplicate = 0.3; reorder = 0.4; reorder_delay = 500.0;
        extra_latency = 0.0 };
    for i = 1 to 50 do
      Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 (string_of_int i)
    done;
    Sim.Engine.run_until e 100_000.0;
    (List.rev !log, Sim.Network.fault_dropped net, Sim.Network.duplicated net,
     Sim.Network.reordered net)
  in
  let (log1, d1, dup1, r1) = observe () and (log2, d2, dup2, r2) = observe () in
  Alcotest.(check (list (pair string (float 0.0)))) "same deliveries, same times" log1 log2;
  Alcotest.(check int) "same drops" d1 d2;
  Alcotest.(check int) "same duplicates" dup1 dup2;
  Alcotest.(check int) "same reorders" r1 r2;
  if d1 = 0 && dup1 = 0 && r1 = 0 then Alcotest.fail "faults never fired; test proves nothing"

(* A reorder fault ejects its message from the link's stream: the next
   message, sent at the same instant, keeps its in-order slot and
   overtakes it, so the FIFO clock was not held back. *)
let test_network_reorder_ejects_from_stream () =
  let e, net = make_net () in
  let got = ref [] in
  Sim.Network.register net "b" (fun ~src:_ msg -> got := (msg, Sim.Engine.now e) :: !got);
  Sim.Network.set_link_faults net ~src:"a" ~dst:"b"
    { Sim.Network.no_faults with reorder = 1.0; reorder_delay = 1_000.0 };
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "ejected";
  Sim.Network.clear_link_faults net ~src:"a" ~dst:"b";
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "next";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check int) "reordered counter" 1 (Sim.Network.reordered net);
  match List.rev !got with
  | [ ("next", t_next); ("ejected", t_ejected) ] ->
    Alcotest.(check (float 0.)) "next keeps its slot" 100.0 t_next;
    if not (t_ejected > 100.0 && t_ejected < 1_100.0) then
      Alcotest.failf "ejected message at %f, outside its extra delay" t_ejected
  | l -> Alcotest.failf "expected the later message first, got %d deliveries" (List.length l)

(* [extra_latency] adds exactly its value, summed over the specs that
   cover the message, and draws nothing. *)
let test_network_extra_latency_exact () =
  let e, net = make_net () in
  let at = ref [] in
  Sim.Network.register net "b" (fun ~src:_ _ -> at := Sim.Engine.now e :: !at);
  Sim.Network.set_node_faults net "a" { Sim.Network.no_faults with extra_latency = 250.0 };
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "x";
  Sim.Engine.run_until e 1_000.0;
  Sim.Network.set_link_faults net ~src:"a" ~dst:"b"
    { Sim.Network.no_faults with extra_latency = 40.0 };
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:10 "y";
  Sim.Engine.run_until e 2_000.0;
  Alcotest.(check (list (float 0.))) "latency plus each spec's spike"
    [ 350.0; 1_000.0 +. 390.0 ] (List.rev !at);
  Alcotest.(check (list int)) "no other fault fired" [ 0; 0; 0 ]
    [ Sim.Network.fault_dropped net; Sim.Network.duplicated net; Sim.Network.reordered net ]

(* A seeded run over 3 nodes in 2 regions, the default latency model
   and drop, duplicate, reorder and extra latency all installed on links
   and nodes.  The (time, src, dst, msg) rows are fixed: a change to the
   send path that moves a draw, a delay or an event's sequence number
   moves a row. *)
let test_network_fault_delivery_log () =
  let e = Sim.Engine.create ~seed:11 () in
  let topo = Sim.Topology.create () in
  Sim.Topology.add_node topo ~id:"a" ~region:"r1";
  Sim.Topology.add_node topo ~id:"b" ~region:"r1";
  Sim.Topology.add_node topo ~id:"c" ~region:"r2";
  let net = Sim.Network.create e topo () in
  let log = ref [] in
  List.iter
    (fun n ->
      Sim.Network.register net n (fun ~src msg -> log := (Sim.Engine.now e, src, n, msg) :: !log))
    [ "a"; "b"; "c" ];
  Sim.Network.set_node_faults net "a"
    { Sim.Network.drop = 0.15; duplicate = 0.2; reorder = 0.25; reorder_delay = 400.0;
      extra_latency = 0.0 };
  Sim.Network.set_node_faults net "c"
    { Sim.Network.drop = 0.1; duplicate = 0.15; reorder = 0.0; reorder_delay = 0.0;
      extra_latency = 1_500.0 };
  Sim.Network.set_link_faults net ~src:"b" ~dst:"a"
    { Sim.Network.drop = 0.0; duplicate = 0.3; reorder = 0.3; reorder_delay = 250.0;
      extra_latency = 60.0 };
  let nodes = [| "a"; "b"; "c" |] in
  for i = 0 to 23 do
    let src = nodes.(i mod 3) and dst = nodes.((i + 1 + ((i / 3) mod 2)) mod 3) in
    Sim.Network.send net ~src ~dst ~size:100 i;
    if i mod 4 = 3 then Sim.Engine.run_for e 120.0
  done;
  Sim.Engine.run_until e 1_000_000.0;
  let expected =
    [
      (0x1.c800d5f824877p+6, "a", "b", 0);
      (0x1.a849ea577b691p+7, "a", "b", 6);
      (0x1.3da768bc53f27p+8, "a", "b", 0);
      (0x1.bcbea01eb784cp+8, "b", "a", 4);
      (0x1.dc9044e7b9583p+8, "b", "a", 10);
      (0x1.f3d1b6b45a853p+8, "b", "a", 4);
      (0x1.07bbb919ee49ap+9, "a", "b", 12);
      (0x1.279dc908f37fp+9, "a", "b", 18);
      (0x1.3ba086e7e00f4p+9, "b", "a", 10);
      (0x1.5511a1b3a07efp+9, "b", "a", 16);
      (0x1.92800992cd58ap+9, "b", "a", 22);
      (0x1.06338b77bae13p+15, "c", "b", 5);
      (0x1.072bc5e48e5c8p+15, "b", "c", 1);
      (0x1.081acd505237ap+15, "a", "c", 15);
      (0x1.09e794e263af9p+15, "b", "c", 7);
      (0x1.0b8f17ccb885cp+15, "c", "b", 11);
      (0x1.0d1935508f0f7p+15, "a", "c", 9);
      (0x1.0e596a8d1cf2p+15, "c", "a", 8);
      (0x1.0fad07b89db32p+15, "c", "a", 2);
      (0x1.10d2bf810ff1dp+15, "b", "c", 13);
      (0x1.114160e2ac8eep+15, "c", "a", 14);
      (0x1.114160e2ac8eep+15, "c", "a", 20);
      (0x1.122d4dd768588p+15, "c", "a", 20);
      (0x1.12be1690615f9p+15, "c", "b", 17);
      (0x1.12be1690615f9p+15, "c", "b", 23);
      (0x1.12be9417b2243p+15, "c", "b", 17);
      (0x1.1307cf6ce9c45p+15, "b", "c", 19)
    ]
  in
  Alcotest.(check (list (pair (float 0.) (triple string string int))))
    "delivery rows" (List.map (fun (t, s, d, m) -> (t, (s, d, m))) expected)
    (List.rev_map (fun (t, s, d, m) -> (t, (s, d, m))) !log);
  Alcotest.(check (list int)) "dropped, fault-dropped, duplicated, reordered" [ 2; 2; 5; 4 ]
    [ Sim.Network.dropped net; Sim.Network.fault_dropped net; Sim.Network.duplicated net;
      Sim.Network.reordered net ]

let test_network_heal_all_clears_faults () =
  let e, net = make_net () in
  let got = ref 0 in
  Sim.Network.register net "c" (fun ~src:_ _ -> incr got);
  Sim.Network.set_node_faults net "a" { Sim.Network.no_faults with drop = 1.0 };
  Sim.Network.set_link_faults net ~src:"b" ~dst:"c" { Sim.Network.no_faults with drop = 1.0 };
  Sim.Network.cut_regions net "r1" "r2";
  Sim.Network.isolate_node net "b";
  Alcotest.(check (list string)) "faulted nodes listed" [ "a" ] (Sim.Network.faulted_nodes net);
  Sim.Network.heal_all net;
  Alcotest.(check (list string)) "fault table cleared" [] (Sim.Network.faulted_nodes net);
  Alcotest.(check (float 0.0)) "node spec back to zero" 0.0
    (Sim.Network.node_faults net "a").Sim.Network.drop;
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:10 "x";
  Sim.Network.send net ~src:"b" ~dst:"c" ~size:10 "y";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check int) "partition, isolation and faults all healed" 2 !got;
  Alcotest.(check int) "nothing fault-dropped after heal" 0 (Sim.Network.fault_dropped net)

let test_network_byte_accounting () =
  let e, net = make_net () in
  Sim.Network.register net "b" (fun ~src:_ _ -> ());
  Sim.Network.register net "c" (fun ~src:_ _ -> ());
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:100 "x";
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:250 "y";
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:250 "z";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check int) "link bytes" 100 (Sim.Network.link_bytes net ~src:"a" ~dst:"b");
  Alcotest.(check int) "cross-region bytes" 500 (Sim.Network.cross_region_bytes net);
  Alcotest.(check int) "total bytes" 600 (Sim.Network.total_bytes net);
  Alcotest.(check int) "messages" 3 (Sim.Network.total_messages net)

let test_link_latency_override () =
  let e, net = make_net () in
  let at = ref 0.0 in
  Sim.Network.register net "c" (fun ~src:_ _ -> at := Sim.Engine.now e);
  Sim.Network.set_link_latency net ~a:"a" ~b:"c" ~latency:42.0;
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:10 "x";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check (float 0.001)) "override applied" 42.0 !at;
  (* an override installed after both directions of a link carried
     traffic takes effect on the very next message *)
  let back = ref 0.0 in
  Sim.Network.register net "b" (fun ~src:_ _ -> back := Sim.Engine.now e);
  Sim.Network.send net ~src:"b" ~dst:"c" ~size:10 "y";
  Sim.Network.send net ~src:"c" ~dst:"b" ~size:10 "z";
  Sim.Engine.run_until e 200_000.0;
  Alcotest.(check (float 0.001)) "region model before the override" 110_000.0 !back;
  Sim.Network.set_link_latency net ~a:"b" ~b:"c" ~latency:7.0;
  Sim.Network.send net ~src:"b" ~dst:"c" ~size:10 "y";
  Sim.Network.send net ~src:"c" ~dst:"b" ~size:10 "z";
  Sim.Engine.run_until e 300_000.0;
  Alcotest.(check (float 0.001)) "late override, forward" 200_007.0 !at;
  Alcotest.(check (float 0.001)) "late override, reverse" 200_007.0 !back

(* [reset_stats] forgets the counters but not the stream: a message sent
   after the reset on a now-faster link still lands behind the one sent
   before it, and only post-reset traffic shows in the rows. *)
let test_reset_stats_keeps_fifo () =
  let e, net = make_net () in
  let got = ref [] in
  Sim.Network.register net "b" (fun ~src:_ msg -> got := (msg, Sim.Engine.now e) :: !got);
  Sim.Network.set_link_latency net ~a:"a" ~b:"b" ~latency:5_000.0;
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:100 "m1";
  Sim.Network.send net ~src:"a" ~dst:"c" ~size:100 "lost";
  Sim.Network.reset_stats net;
  Alcotest.(check int) "link rows cleared" 0 (List.length (Sim.Network.link_stat_rows net));
  Alcotest.(check int) "region rows cleared" 0 (List.length (Sim.Network.region_stat_rows net));
  Alcotest.(check int) "link bytes cleared" 0 (Sim.Network.link_bytes net ~src:"a" ~dst:"b");
  Sim.Network.set_link_latency net ~a:"a" ~b:"b" ~latency:10.0;
  Sim.Network.send net ~src:"a" ~dst:"b" ~size:30 "m2";
  Sim.Engine.run_until e 100_000.0;
  Alcotest.(check (list (pair string (float 0.001))))
    "m2 waits behind m1" [ ("m1", 5_000.0); ("m2", 5_000.0) ] (List.rev !got);
  Alcotest.(check (list (pair (pair string string) (pair int int))))
    "only post-reset traffic"
    [ (("a", "b"), (1, 30)) ]
    (List.map (fun (s, d, m, b) -> ((s, d), (m, b))) (Sim.Network.link_stat_rows net));
  Alcotest.(check (list (pair (pair string string) (pair int int))))
    "region rows follow"
    [ (("r1", "r1"), (1, 30)) ]
    (List.map (fun (s, d, m, b) -> ((s, d), (m, b))) (Sim.Network.region_stat_rows net));
  Alcotest.(check int) "cross-region bytes reset" 0 (Sim.Network.cross_region_bytes net)

(* ----- allocation on the message path ----- *)

(* A fault-free message costs only the engine event that delivers it:
   the 5-word call event, the clock's box when the delivery moves time
   forward (messages sent together on a link share a FIFO delivery
   time, so not every delivery does), and (unless the link is pinned)
   the latency sample [Rng.float] returns.  The delay reaches the engine
   in the network's delay cell and the key stays in the queue's float
   column, so neither is boxed.  Measured at 7.11 words (5.02 pinned); a
   boxed delay or key, a closure per send or per delivery, or a boxed
   RNG state pushes a case past its bound.  Each round sends a batch and
   runs the engine once, and the run's horizon (2 words) is counted
   apart. *)
let same_region_send_deliver_words = 8

let pinned_send_deliver_words = 6

(* Across regions the draw is the same as in-region: the link holds its
   region pair's delay law, fixed when the link was created, so no
   region pair is hashed or looked up per send. *)
let cross_region_send_deliver_words = 8

let check_send_deliver_words ~bound link () =
  let per_msg, _ = Kit.Alloc.send_deliver link in
  Alcotest.(check bool)
    (Printf.sprintf "%s: %.2f words per send+deliver <= %d" (Kit.Alloc.link_name link)
       per_msg bound)
    true
    (per_msg <= float_of_int bound)

let test_rng_float_words () =
  let rng = Sim.Rng.of_int 5 in
  let sum = ref 0.0 in
  let words = Kit.Alloc.minor_words ~rounds:1_000 (fun () -> sum := Sim.Rng.float rng) in
  Alcotest.(check (float 0.)) "words per Rng.float (the returned box only)" 2.0
    (words /. 1_000.0)

let test_topology_queries () =
  let topo = Sim.Topology.create () in
  Sim.Topology.add_node topo ~id:"a" ~region:"r1";
  Sim.Topology.add_node topo ~id:"b" ~region:"r2";
  Sim.Topology.add_node topo ~id:"c" ~region:"r1";
  Alcotest.(check (list string)) "regions" [ "r1"; "r2" ] (Sim.Topology.regions topo);
  Alcotest.(check (list string)) "in region" [ "a"; "c" ]
    (Sim.Topology.nodes_in_region topo "r1");
  Alcotest.(check bool) "same region" true (Sim.Topology.same_region topo "a" "c");
  Alcotest.(check string) "region_of" "r2" (Sim.Topology.region_of topo "b")

let test_vec_basics () =
  let v = Vec.create ~dummy:0 in
  for i = 1 to 100 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get" 42 (Vec.get v 41);
  let removed = Vec.truncate_to v 90 in
  Alcotest.(check int) "removed count" 10 (List.length removed);
  Alcotest.(check (list int)) "removed order" [ 91; 92; 93; 94; 95; 96; 97; 98; 99; 100 ]
    removed;
  Alcotest.(check (list int)) "slice" [ 1; 2; 3 ] (Vec.slice v ~lo:0 ~hi:3)

(* Chunked [Vec] against a plain array model.  Pushes come in bursts so
   lengths reach ~10k: past chunk 0's doubling, across the 4096 and 8192
   chunk boundaries, and back across them on truncation, after which the
   vector must reuse its emptied chunks. *)
type vec_op =
  | Push of int (* push this many fresh values *)
  | Set of int * int (* index (mod length), value *)
  | Truncate of int (* to this (mod length + 1) *)
  | Truncate_near of int * int (* to chunk boundary k * 4096 plus an offset *)

let vec_op_gen =
  QCheck.Gen.(
    frequency
      [
        (4, map (fun n -> Push n) (int_range 1 3_000));
        (2, map2 (fun i v -> Set (i, v)) nat nat);
        (1, map (fun n -> Truncate n) nat);
        (2, map2 (fun k d -> Truncate_near (k, d)) (int_range 0 2) (int_range (-3) 3));
      ])

let print_vec_op = function
  | Push n -> Printf.sprintf "Push %d" n
  | Set (i, v) -> Printf.sprintf "Set (%d, %d)" i v
  | Truncate n -> Printf.sprintf "Truncate %d" n
  | Truncate_near (k, d) -> Printf.sprintf "Truncate_near (%d, %d)" k d

let prop_vec_matches_array =
  QCheck.Test.make ~name:"chunked vec equals an array model" ~count:60
    QCheck.(make ~print:(Print.list print_vec_op) Gen.(list_size (int_range 1 25) vec_op_gen))
    (fun ops ->
      let cap = 12_000 in
      let model = Array.make cap 0 and len = ref 0 and next = ref 0 in
      let v = Vec.create ~dummy:(-1) in
      let truncate_model n =
        let removed = Array.to_list (Array.sub model n (!len - n)) in
        len := n;
        removed
      in
      let same () =
        let n = !len in
        let slice_ok lo hi =
          Vec.slice v ~lo ~hi
          = Array.to_list (Array.sub model (max 0 lo) (max 0 (min n hi - max 0 lo)))
        in
        Vec.length v = n
        && Vec.is_empty v = (n = 0)
        && Vec.get_opt v n = None
        && Vec.get_opt v (-1) = None
        && (n = 0 || (Vec.get v 0 = model.(0) && Vec.get v (n - 1) = model.(n - 1)))
        && (n = 0 || Vec.get_opt v (n / 2) = Some model.(n / 2))
        && slice_ok (n - 5000) (n - 4000)
        && slice_ok 4090 4100
        && slice_ok (-3) 3
        && Vec.to_list v = Array.to_list (Array.sub model 0 n)
        && Vec.fold v ~init:0 (fun acc x -> (acc * 31) + x)
           = Array.fold_left (fun acc x -> (acc * 31) + x) 0 (Array.sub model 0 n)
        &&
        let sum = ref 0 and ok = ref true in
        Vec.iter v (fun x -> sum := !sum + x);
        Vec.iteri v (fun i x -> if model.(i) <> x then ok := false);
        !ok && !sum = Array.fold_left ( + ) 0 (Array.sub model 0 n)
      in
      List.for_all
        (fun op ->
          (match op with
          | Push k ->
            for _ = 1 to min k (cap - !len) do
              incr next;
              model.(!len) <- !next;
              incr len;
              Vec.push v !next
            done;
            true
          | Set (i, x) ->
            if !len > 0 then begin
              model.(i mod !len) <- x;
              Vec.set v (i mod !len) x
            end;
            true
          | Truncate n ->
            let n = n mod (!len + 1) in
            Vec.truncate_to v n = truncate_model n
          | Truncate_near (k, d) ->
            let n = max 0 (min !len ((k * 4096) + d)) in
            Vec.truncate_to v n = truncate_model n)
          && same ())
        ops)

let suites =
  [
    ( "sim.rng",
      [
        Alcotest.test_case "deterministic" `Quick test_rng_deterministic;
        Alcotest.test_case "split independent" `Quick test_rng_split_independent;
        Alcotest.test_case "float in [0,1)" `Quick test_rng_float_range;
        Alcotest.test_case "int bound" `Quick test_rng_int_bound;
        Alcotest.test_case "exponential mean" `Quick test_rng_exponential_mean;
        Alcotest.test_case "known answers" `Quick test_rng_known_answers;
      ] );
    ( "sim.engine",
      [
        Alcotest.test_case "random delays fire in key order" `Quick test_engine_key_order;
        Alcotest.test_case "ties fire in scheduling order" `Quick test_engine_fifo_ties;
        Alcotest.test_case "event ordering" `Quick test_engine_ordering;
        Alcotest.test_case "cancellation" `Quick test_engine_cancel;
        Alcotest.test_case "call event gets its arguments" `Quick test_engine_call_event;
        Alcotest.test_case "nested scheduling" `Quick test_engine_nested_schedule;
        Alcotest.test_case "run_until horizon" `Quick test_engine_run_until_horizon;
        Alcotest.test_case "compaction drops cancelled events" `Quick test_engine_compaction;
        QCheck_alcotest.to_alcotest prop_engine_matches_reference;
      ] );
    ( "sim.network",
      [
        Alcotest.test_case "delivery" `Quick test_network_delivery;
        Alcotest.test_case "latency applied" `Quick test_network_latency_applied;
        Alcotest.test_case "down node drops" `Quick test_network_down_node_drops;
        Alcotest.test_case "region partition" `Quick test_network_partition;
        Alcotest.test_case "isolate node" `Quick test_network_isolate_node;
        Alcotest.test_case "fault drop accounting" `Quick test_network_fault_drop_accounting;
        Alcotest.test_case "fault duplicate delivers twice" `Quick
          test_network_fault_duplicate_delivers_twice;
        Alcotest.test_case "fault determinism under seed" `Quick test_network_fault_determinism;
        Alcotest.test_case "reorder ejects from the stream" `Quick
          test_network_reorder_ejects_from_stream;
        Alcotest.test_case "extra latency is exact" `Quick test_network_extra_latency_exact;
        Alcotest.test_case "seeded fault delivery log" `Quick test_network_fault_delivery_log;
        Alcotest.test_case "heal_all clears faults" `Quick test_network_heal_all_clears_faults;
        Alcotest.test_case "byte accounting" `Quick test_network_byte_accounting;
        Alcotest.test_case "link latency override" `Quick test_link_latency_override;
        Alcotest.test_case "reset_stats keeps fifo" `Quick test_reset_stats_keeps_fifo;
      ] );
    ( "sim.alloc",
      [
        Alcotest.test_case "same-region send+deliver words" `Quick
          (check_send_deliver_words ~bound:same_region_send_deliver_words
             Kit.Alloc.Same_region);
        Alcotest.test_case "pinned-link send+deliver words" `Quick
          (check_send_deliver_words ~bound:pinned_send_deliver_words
             Kit.Alloc.Pinned_link);
        Alcotest.test_case "cross-region send+deliver words" `Quick
          (check_send_deliver_words ~bound:cross_region_send_deliver_words
             Kit.Alloc.Cross_region);
        Alcotest.test_case "Rng.float words" `Quick test_rng_float_words;
      ] );
    ( "sim.topology",
      [ Alcotest.test_case "queries" `Quick test_topology_queries ] );
    ( "util.vec",
      [
        Alcotest.test_case "basics" `Quick test_vec_basics;
        QCheck_alcotest.to_alcotest prop_vec_matches_array;
      ] );
  ]
