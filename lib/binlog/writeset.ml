(* WRITESET-based transaction dependency tracking
   (binlog_transaction_dependency_tracking = WRITESET).

   The primary keeps a bounded history mapping hashes of the (table, key)
   pairs a transaction wrote to the log index of the last transaction
   that wrote them.  At flush time each transaction is stamped with a
   MySQL-style dependency interval:

     sequence_number = its own log index
     last_committed  = max over its writeset of the last writer's index
                       (the history floor when no key matches)

   A replica may execute the transaction in parallel with anything later
   than [last_committed]: every earlier transaction it conflicts with is
   at or below that index.  Hash collisions only ever merge distinct keys
   into one slot, which produces a *later* last_committed — a false
   dependency, never a missed one, so collisions cost parallelism but not
   correctness.

   When the history exceeds its capacity it is emptied and the floor
   raised to the current index, exactly like MySQL's
   m_writeset_history_size / m_last_history_reset_seqno: transactions
   stamped after a reset conservatively depend on everything before it.
   Emptying keeps the table's buckets: the history refills to the same
   size, so shrinking it would only make it regrow through a chain of
   resizes, each rehashing every entry.

   A stamp reads the transaction's row ops as they are and builds
   nothing: no key list, no hash list, and no (table, key) tuple. *)

(* A (table, key) pair, laid out as the tuple the history hashes: a
   tag-0 block of two fields hashes the same built as a tuple or as this
   record, so one scratch pair serves every key of every stamp. *)
type pair = { mutable table : string; mutable key : string }

type t = {
  history : (int, int) Hashtbl.t; (* hash (table, key) -> last writer index *)
  capacity : int;
  mutable floor : int; (* raised on history reset; lower bound for stamps *)
  scratch : pair;
}

let create ~capacity =
  {
    history = Hashtbl.create 1024;
    capacity = max 1 capacity;
    floor = 0;
    scratch = { table = ""; key = "" };
  }

let size t = Hashtbl.length t.history

let floor t = t.floor

(* Forget everything (role change: a fresh primary starts a new dependency
   epoch; the leader's no-op barrier fences it from the previous one). *)
let clear t =
  Hashtbl.reset t.history;
  t.floor <- 0

(* [Hashtbl.hash (table, key)] *)
let key_hash t table op =
  t.scratch.table <- table;
  t.scratch.key <- Event.row_op_key op;
  Hashtbl.hash t.scratch

(* The latest last writer of any of [ops]' keys, at least [acc]. *)
let rec last_writer t table acc = function
  | [] -> acc
  | op :: rest ->
    let acc =
      match Hashtbl.find t.history (key_hash t table op) with
      | i -> if i > acc then i else acc
      | exception Not_found -> acc
    in
    last_writer t table acc rest

let rec record t table index = function
  | [] -> ()
  | op :: rest ->
    Hashtbl.replace t.history (key_hash t table op) index;
    record t table index rest

(* Stamp the transaction at [index] writing [ops] on [table]; returns its
   [last_committed].  Always < index: a transaction cannot depend on
   itself or the future. *)
let stamp t ~index ~table ~ops =
  let last_committed = last_writer t table t.floor ops in
  record t table index ops;
  if Hashtbl.length t.history > t.capacity then begin
    Hashtbl.clear t.history;
    t.floor <- index
  end;
  min last_committed (index - 1)
