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

   When the history exceeds its capacity it is reset and the floor raised
   to the current index, exactly like MySQL's
   m_writeset_history_size / m_last_history_reset_seqno: transactions
   stamped after a reset conservatively depend on everything before it. *)

type t = {
  history : (int, int) Hashtbl.t; (* hash (table, key) -> last writer index *)
  capacity : int;
  mutable floor : int; (* raised on history reset; lower bound for stamps *)
}

let create ~capacity = { history = Hashtbl.create 1024; capacity = max 1 capacity; floor = 0 }

let size t = Hashtbl.length t.history

let floor t = t.floor

(* Forget everything (role change: a fresh primary starts a new dependency
   epoch; the leader's no-op barrier fences it from the previous one). *)
let clear t =
  Hashtbl.reset t.history;
  t.floor <- 0

let key_hash (table, key) = Hashtbl.hash (table, key)

(* Stamp the transaction at [index] writing [keys]; returns its
   [last_committed].  Always < index: a transaction cannot depend on
   itself or the future. *)
let stamp t ~index ~keys =
  let hashes = List.map key_hash keys in
  let last_committed =
    List.fold_left
      (fun acc h ->
        match Hashtbl.find_opt t.history h with Some i -> max acc i | None -> acc)
      t.floor hashes
  in
  List.iter (fun h -> Hashtbl.replace t.history h index) hashes;
  if Hashtbl.length t.history > t.capacity then begin
    Hashtbl.reset t.history;
    t.floor <- index
  end;
  min last_committed (index - 1)
