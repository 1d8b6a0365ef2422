(* Workload generators.

   [Production]: MyShadow-style open-loop traffic — Poisson arrivals from
   a client ~10 ms away from the primary, transaction sizes drawn from a
   lognormal around the fleet's ~500-byte average (§4.2.2, §6.1).

   [Sysbench]: the sysbench OLTP benchmark — a closed loop of N worker
   threads colocated with the primary (§6.1 runs the clients on the
   primary's machine to remove client-side latency).

   Both loops mix reads into the write stream at [read_ratio], issued at
   [read_level] against [read_target] (default: the primary).  A
   [Read_your_writes] level automatically carries the session's last
   acknowledged GTID. *)

type stats = {
  latencies : Stats.Histogram.t; (* commit latency as seen by the client *)
  throughput : Stats.Timeseries.t; (* commits per bucket *)
  mutable issued : int;
  mutable committed : int;
  mutable rejected : int;
  mutable timed_out : int;
  (* read-side counters *)
  read_latencies : Stats.Histogram.t; (* served reads only *)
  mutable reads_issued : int;
  mutable reads_ok : int;
  mutable reads_rejected : int;
  mutable reads_timed_out : int;
}

let make_stats ~bucket_width =
  {
    latencies = Stats.Histogram.create ();
    throughput = Stats.Timeseries.create ~bucket_width;
    issued = 0;
    committed = 0;
    rejected = 0;
    timed_out = 0;
    read_latencies = Stats.Histogram.create ();
    reads_issued = 0;
    reads_ok = 0;
    reads_rejected = 0;
    reads_timed_out = 0;
  }

(* Key-skew models for [draw_key].  [Zipf theta] uses the standard
   Zipf(theta) pmf over ranks 1..key_space via a precomputed inverse CDF
   (row-0 hottest); [Hot_spot] sends [hot_fraction] of ops to the first
   [hot_keys] rows.  Skew concentrates the writeset, which is what makes
   dependency-tracked parallel apply stall — the apply bench sweeps it. *)
type key_dist =
  | Uniform
  | Zipf of float
  | Hot_spot of { hot_fraction : float; hot_keys : int }

(* One kind of request (writes or reads) in flight.  Ids are issued in
   order and the timeout is constant, so deadlines rise with the id: a
   single armed timer, at the oldest outstanding id's deadline, covers
   every request.  When it fires it times out each due id and re-arms at
   the next outstanding one, advancing [oldest] past settled ids. *)
type 'k lane = {
  pending : (int, float * 'k option) Hashtbl.t; (* id -> (send time, continuation) *)
  timeout : float;
  mutable next : int; (* id of the next request *)
  mutable oldest : int; (* no id below this is outstanding *)
  mutable armed : bool; (* a timer is queued; false iff none is outstanding *)
  expired : 'k option -> unit; (* count a timeout and settle its continuation *)
}

type t = {
  backend : Backend.t;
  client_id : string;
  rng : Sim.Rng.t;
  stats : stats;
  writes : (bool -> unit) lane;
  reads : (Backend.read_outcome -> unit) lane;
  mutable running : bool;
  key_space : int;
  key_dist : key_dist;
  tables : string array; (* tables ops draw from, uniformly *)
  zipf_cdf : float array; (* cumulative pmf over ranks; empty unless Zipf *)
  value_mu : float; (* lognormal of row payload size *)
  value_sigma : float;
  read_ratio : float; (* fraction of issued ops that are reads *)
  read_level : Read.Level.t;
  read_target : string option; (* None = primary *)
  mutable last_gtid : Binlog.Gtid.t option; (* session token for RYW *)
}

let stats t = t.stats

let lane ~timeout ~expired =
  { pending = Hashtbl.create 256; timeout; next = 1; oldest = 1; armed = false; expired }

(* Take the next request id, recording its send time. *)
let open_request lane ~now k =
  let id = lane.next in
  lane.next <- id + 1;
  Hashtbl.replace lane.pending id (now, k);
  id

(* Settle request [id]: its (send time, continuation) if outstanding. *)
let settle lane id =
  let entry = Hashtbl.find_opt lane.pending id in
  if Option.is_some entry then Hashtbl.remove lane.pending id;
  entry

let rec arm engine lane =
  while lane.oldest < lane.next && not (Hashtbl.mem lane.pending lane.oldest) do
    lane.oldest <- lane.oldest + 1
  done;
  lane.armed <- lane.oldest < lane.next;
  if lane.armed then begin
    let sent_at, _ = Hashtbl.find lane.pending lane.oldest in
    ignore
      (Sim.Engine.schedule_key engine ~key:(sent_at +. lane.timeout) (fun () ->
           expire engine lane))
  end

(* The timer fired: time out every due request, oldest first, then re-arm.
   [armed] stays set meanwhile, so requests issued from a continuation
   leave the re-arming to this call. *)
and expire engine lane =
  let now = Sim.Engine.now engine in
  let rec due () =
    if lane.oldest < lane.next then
      match Hashtbl.find_opt lane.pending lane.oldest with
      | Some (sent_at, k) when sent_at +. lane.timeout <= now ->
        Hashtbl.remove lane.pending lane.oldest;
        lane.oldest <- lane.oldest + 1;
        lane.expired k;
        due ()
      | Some _ -> ()
      | None ->
        lane.oldest <- lane.oldest + 1;
        due ()
  in
  due ();
  arm engine lane

(* A request was sent: make sure a timer covers it. *)
let cover engine lane = if not lane.armed then arm engine lane

let last_gtid t = t.last_gtid

let stop t = t.running <- false

(* Cumulative Zipf(theta) weights over ranks 1..n, normalised to 1. *)
let zipf_cdf_table ~n ~theta =
  let w = Array.init n (fun i -> 1.0 /. (float_of_int (i + 1) ** theta)) in
  let total = Array.fold_left ( +. ) 0.0 w in
  let acc = ref 0.0 in
  Array.map
    (fun x ->
      acc := !acc +. (x /. total);
      !acc)
    w

let create ~backend ~client_id ~region ?client_latency ?(write_timeout = 5.0 *. Sim.Engine.s)
    ?(key_space = 100_000) ?(key_dist = Uniform) ?(tables = [ "sbtest" ])
    ?(value_mu = log 420.0) ?(value_sigma = 0.4)
    ?(bucket_width = Sim.Engine.s) ?(read_ratio = 0.0)
    ?(read_level = Read.Level.Eventual) ?read_target ?(read_timeout = 5.0 *. Sim.Engine.s)
    () =
  let zipf_cdf =
    match key_dist with
    | Zipf theta -> zipf_cdf_table ~n:key_space ~theta
    | Uniform | Hot_spot _ -> [||]
  in
  let stats = make_stats ~bucket_width in
  let t =
    {
      backend;
      client_id;
      rng = Sim.Rng.split (Sim.Engine.rng backend.Backend.engine);
      stats;
      writes =
        lane ~timeout:write_timeout ~expired:(fun k ->
            stats.timed_out <- stats.timed_out + 1;
            match k with Some k -> k false | None -> ());
      reads =
        lane ~timeout:read_timeout ~expired:(fun k ->
            stats.reads_timed_out <- stats.reads_timed_out + 1;
            match k with
            | Some k ->
              k (Backend.Read_rejected { reason = "read timed out"; retry_after = None })
            | None -> ());
      running = true;
      key_space;
      key_dist;
      tables = (if tables = [] then [| "sbtest" |] else Array.of_list tables);
      zipf_cdf;
      value_mu;
      value_sigma;
      read_ratio;
      read_level;
      read_target;
      last_gtid = None;
    }
  in
  backend.Backend.register_client ~id:client_id ~region
    ~on_reply:(fun ~write_id ~ok ~gtid ->
      match settle t.writes write_id with
      | None -> ()
      | Some (sent_at, k) ->
        let now = Sim.Engine.now backend.Backend.engine in
        if ok then begin
          t.stats.committed <- t.stats.committed + 1;
          (match gtid with Some g -> t.last_gtid <- Some g | None -> ());
          Stats.Histogram.record t.stats.latencies (now -. sent_at);
          Stats.Timeseries.record t.stats.throughput now
        end
        else t.stats.rejected <- t.stats.rejected + 1;
        match k with Some k -> k ok | None -> ())
    ~on_read_reply:(fun ~read_id ~outcome ->
      match settle t.reads read_id with
      | None -> ()
      | Some (sent_at, k) ->
        let now = Sim.Engine.now backend.Backend.engine in
        (match outcome with
        | Backend.Read_ok _ ->
          t.stats.reads_ok <- t.stats.reads_ok + 1;
          Stats.Histogram.record t.stats.read_latencies (now -. sent_at)
        | Backend.Read_rejected _ -> t.stats.reads_rejected <- t.stats.reads_rejected + 1);
        match k with Some k -> k outcome | None -> ());
  (* With no explicit override the client's latency to the ring comes
     from the region-pair model. *)
  (match client_latency with
  | Some latency -> backend.Backend.set_client_latency ~client:client_id ~latency
  | None -> ());
  t

(* Issue one specific write; [k] runs when it settles (commit, reject or
   timeout).  Used directly by trace replay (Shadow). *)
let issue_op ?k t ~table ~key ~value_size =
  let engine = t.backend.Backend.engine in
  t.stats.issued <- t.stats.issued + 1;
  let ops = [ Binlog.Event.Insert { key; value = String.make value_size 'd' } ] in
  let write_id = open_request t.writes ~now:(Sim.Engine.now engine) k in
  let sent = t.backend.Backend.send_write ~client:t.client_id ~write_id ~table ~ops in
  if not sent then begin
    Hashtbl.remove t.writes.pending write_id;
    t.stats.rejected <- t.stats.rejected + 1;
    match k with Some k -> k false | None -> ()
  end
  else cover engine t.writes

(* Issue one read at [level] (defaults to the generator's configured
   level, with the session's last GTID attached for RYW). *)
let issue_read ?k ?level ?target t ~table ~key =
  let engine = t.backend.Backend.engine in
  let level =
    match (match level with Some l -> l | None -> t.read_level) with
    | Read.Level.Read_your_writes None -> Read.Level.Read_your_writes t.last_gtid
    | l -> l
  in
  let target = match target with Some _ as x -> x | None -> t.read_target in
  t.stats.reads_issued <- t.stats.reads_issued + 1;
  let read_id = open_request t.reads ~now:(Sim.Engine.now engine) k in
  let sent =
    t.backend.Backend.send_read ~client:t.client_id ~read_id ~level ~table ~key ~target
  in
  if not sent then begin
    Hashtbl.remove t.reads.pending read_id;
    t.stats.reads_rejected <- t.stats.reads_rejected + 1;
    match k with
    | Some k ->
      k (Backend.Read_rejected { reason = "no read target"; retry_after = None })
    | None -> ()
  end
  else cover engine t.reads

(* Smallest rank whose cumulative weight covers [u] (inverse CDF). *)
let zipf_rank cdf u =
  let lo = ref 0 and hi = ref (Array.length cdf - 1) in
  while !lo < !hi do
    let mid = (!lo + !hi) / 2 in
    if cdf.(mid) < u then lo := mid + 1 else hi := mid
  done;
  !lo

let draw_key_index t =
  match t.key_dist with
  | Uniform -> Sim.Rng.int t.rng t.key_space
  | Zipf _ -> zipf_rank t.zipf_cdf (Sim.Rng.uniform t.rng ~lo:0.0 ~hi:1.0)
  | Hot_spot { hot_fraction; hot_keys } ->
    let hot_keys = max 1 (min hot_keys t.key_space) in
    if Sim.Rng.uniform t.rng ~lo:0.0 ~hi:1.0 < hot_fraction then
      Sim.Rng.int t.rng hot_keys
    else Sim.Rng.int t.rng t.key_space

let draw_key t = Printf.sprintf "row-%d" (draw_key_index t)

(* Multi-table workloads (shard routing hashes (table, key)): each op
   lands on a uniformly drawn table. *)
let draw_table t =
  if Array.length t.tables = 1 then t.tables.(0)
  else t.tables.(Sim.Rng.int t.rng (Array.length t.tables))

(* Issue one write with generator-drawn key and payload size. *)
let issue ?k t =
  let value_size =
    max 16 (int_of_float (Sim.Rng.lognormal t.rng ~mu:t.value_mu ~sigma:t.value_sigma))
  in
  issue_op ?k t ~table:(draw_table t) ~key:(draw_key t) ~value_size

(* One generator-drawn op: a read with probability [read_ratio], else a
   write.  [k] settles either way. *)
let issue_mixed ?k t =
  if t.read_ratio > 0.0 && Sim.Rng.uniform t.rng ~lo:0.0 ~hi:1.0 < t.read_ratio then
    issue_read
      ?k:(match k with Some k -> Some (fun (_ : Backend.read_outcome) -> k true) | None -> None)
      t ~table:(draw_table t) ~key:(draw_key t)
  else issue ?k t

(* Open-loop Poisson arrivals at [rate_per_s]. *)
let start_open_loop t ~rate_per_s =
  let engine = t.backend.Backend.engine in
  let mean_gap = Sim.Engine.s /. rate_per_s in
  let rec tick () =
    if t.running then begin
      issue_mixed t;
      ignore
        (Sim.Engine.schedule engine ~delay:(Sim.Rng.exponential t.rng ~mean:mean_gap) tick)
    end
  in
  ignore (Sim.Engine.schedule engine ~delay:(Sim.Rng.exponential t.rng ~mean:mean_gap) tick)

(* Closed loop with [threads] workers (sysbench-style). *)
let start_closed_loop t ~threads =
  let engine = t.backend.Backend.engine in
  let rec worker () =
    if t.running then
      issue_mixed t ~k:(fun _ ->
          (* tiny think time to model the client library overhead *)
          ignore (Sim.Engine.schedule engine ~delay:(10.0 *. Sim.Engine.us) worker))
  in
  for _ = 1 to threads do
    ignore
      (Sim.Engine.schedule engine ~delay:(Sim.Rng.uniform t.rng ~lo:0.0 ~hi:Sim.Engine.ms)
         worker)
  done

let summary t =
  let st = t.stats in
  Printf.sprintf "%s/%s: issued=%d committed=%d rejected=%d timeout=%d%s%s"
    t.backend.Backend.label t.client_id st.issued st.committed st.rejected st.timed_out
    (if st.reads_issued = 0 then ""
     else
       Printf.sprintf " | reads issued=%d ok=%d rejected=%d timeout=%d" st.reads_issued
         st.reads_ok st.reads_rejected st.reads_timed_out)
    (if Stats.Histogram.is_empty st.latencies then ""
     else
       Printf.sprintf " | %s"
         (Stats.Histogram.summary_line ~label:"latency(us)" st.latencies))
