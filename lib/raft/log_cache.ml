(* Leader-side in-memory cache of recent log entries (§3.1, §3.4).

   The leader compresses and caches each transaction it appends so that
   replication to (mostly caught-up) followers never touches the log
   files.  When a follower has fallen far enough behind that the entries
   it needs have been evicted, the leader falls back to the log
   abstraction — "parsing historical binary log files" — which we surface
   as a [disk_reads] counter so tests can assert the fallback happened.

   Storage is a power-of-two ring over the contiguous index range
   [first_cached, last_cached]: slot for index i is [i land (cap - 1)].
   Appends, evictions and lookups are O(1) with no per-entry cells to
   allocate or collect — the Hashtbl this replaced paid a bucket cons per
   [put] and hashed on every probe of the replication hot loop.  Eviction
   is FIFO by index with a total-bytes budget, matching a cache over a
   strictly appended sequence.

   A batch read, [read_slice], fills an internal scratch buffer and
   returns a right-sized array — one allocation per AppendEntries batch,
   no list cells, no [List.rev].  Returned slices hold the entries
   themselves, which are immutable, so they stay valid however the cache
   evicts afterwards. *)

(* Fills unused ring and scratch slots, so they retain nothing live; also
   what [Log_store.slot] returns for an index the log does not hold. *)
let absent = Binlog.Log_store.absent

type t = {
  mutable ring : Binlog.Entry.t array; (* slot for index i = i land (cap-1) *)
  mutable cap : int; (* power of two, = Array.length ring *)
  mutable first_cached : int; (* lowest index still cached; 0 when empty *)
  mutable last_cached : int;
  mutable bytes : int;
  max_bytes : int;
  mutable scratch : Binlog.Entry.t array; (* reused by read_slice *)
  m_hits : Obs.Metrics.counter;
  m_disk_reads : Obs.Metrics.counter;
  m_bytes : Obs.Metrics.gauge;
}

let create ?metrics ?(max_bytes = 4 * 1024 * 1024) () =
  (* Absent a registry, handles resolve against a throwaway one so the
     hot path never branches on an option. *)
  let m = match metrics with Some m -> m | None -> Obs.Metrics.create () in
  {
    ring = Array.make 1024 absent;
    cap = 1024;
    first_cached = 0;
    last_cached = 0;
    bytes = 0;
    max_bytes;
    scratch = Array.make 64 absent;
    m_hits = Obs.Metrics.counter m "raft.log_cache.hits";
    m_disk_reads = Obs.Metrics.counter m "raft.log_cache.disk_reads";
    m_bytes = Obs.Metrics.gauge m "raft.log_cache.bytes";
  }

let is_empty t = t.first_cached = 0

let[@inline] slot t index = index land (t.cap - 1)

let contains t ~index =
  (not (is_empty t)) && index >= t.first_cached && index <= t.last_cached

let evict_oldest t =
  let i = slot t t.first_cached in
  t.bytes <- t.bytes - Binlog.Entry.size t.ring.(i);
  t.ring.(i) <- absent;
  t.first_cached <- t.first_cached + 1

(* Double the ring until [count] entries fit, re-seating live slots. *)
let grow t count =
  let cap = ref t.cap in
  while count > !cap do
    cap := !cap * 2
  done;
  let ring = Array.make !cap absent in
  for i = t.first_cached to t.last_cached do
    ring.(i land (!cap - 1)) <- t.ring.(slot t i)
  done;
  t.ring <- ring;
  t.cap <- !cap

let put t entry =
  let index = Binlog.Entry.index entry in
  if is_empty t then begin
    t.first_cached <- index;
    t.last_cached <- index - 1
  end
  else if index >= t.first_cached && index <= t.last_cached then begin
    (* Re-inserting an index replaces the old entry; release its bytes so
       the budget tracks what the ring actually holds. *)
    let i = slot t index in
    t.bytes <- t.bytes - Binlog.Entry.size t.ring.(i);
    t.ring.(i) <- absent
  end
  else if index <> t.last_cached + 1 then begin
    (* Non-contiguous with the cached range (cannot happen on a Raft log,
       which appends at the tail; kept for safety): restart the cache at
       this entry. *)
    Array.fill t.ring 0 t.cap absent;
    t.bytes <- 0;
    t.first_cached <- index;
    t.last_cached <- index - 1
  end;
  if index > t.last_cached then begin
    if index - t.first_cached + 1 > t.cap then grow t (index - t.first_cached + 1);
    t.last_cached <- index
  end;
  t.ring.(slot t index) <- entry;
  t.bytes <- t.bytes + Binlog.Entry.size entry;
  while t.bytes > t.max_bytes && t.first_cached < t.last_cached do
    evict_oldest t
  done;
  Obs.Metrics.set_gauge_int t.m_bytes t.bytes

(* Drop cached entries at or above [index] (log truncation on the leader
   is impossible in Raft, but a demoted leader reuses the same cache). *)
let truncate_from t ~index =
  if not (is_empty t) then begin
    for i = max index t.first_cached to t.last_cached do
      let s = slot t i in
      t.bytes <- t.bytes - Binlog.Entry.size t.ring.(s);
      t.ring.(s) <- absent
    done;
    if t.last_cached >= index then t.last_cached <- index - 1;
    if t.first_cached > t.last_cached then begin
      t.first_cached <- 0;
      t.last_cached <- 0;
      t.bytes <- 0
    end
  end;
  Obs.Metrics.set_gauge_int t.m_bytes t.bytes

(* Read [from_index, from_index+max_count) preferring the cache, falling
   back to the log for the cold prefix, into the scratch buffer.
   Neither source boxes what it returns: a miss on both is the
   [Log_store.absent] sentinel.
   [max_bytes] additionally bounds the batch: collection stops before the
   entry that would exceed the budget, except that the first entry always
   ships so an oversized transaction still makes progress one-per-AE.
   Returns the number of entries filled. *)
let read_scratch t ~log ~max_bytes ~from_index ~max_count =
  if max_count > Array.length t.scratch then
    t.scratch <- Array.make (max max_count (2 * Array.length t.scratch)) absent;
  let n = ref 0 in
  let bytes = ref 0 in
  let stop = ref false in
  while (not !stop) && !n < max_count do
    let idx = from_index + !n in
    let from_cache = contains t ~index:idx in
    let e = if from_cache then t.ring.(slot t idx) else Binlog.Log_store.slot log idx in
    if e == absent then stop := true
    else begin
      let sz = Binlog.Entry.size e in
      if !n > 0 && !bytes + sz > max_bytes then stop := true
      else begin
        Obs.Metrics.incr (if from_cache then t.m_hits else t.m_disk_reads);
        t.scratch.(!n) <- e;
        incr n;
        bytes := !bytes + sz
      end
    end
  done;
  !n

let read_slice t ~log ~max_bytes ~from_index ~max_count =
  let n = read_scratch t ~log ~max_bytes ~from_index ~max_count in
  let out = Array.sub t.scratch 0 n in
  (* don't let the scratch keep evicted entries alive between batches *)
  Array.fill t.scratch 0 n absent;
  out

let disk_reads t = Obs.Metrics.counter_value t.m_disk_reads

let cached_bytes t = t.bytes
