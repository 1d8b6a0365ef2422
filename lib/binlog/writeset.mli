(** WRITESET-based transaction dependency tracking
    (binlog_transaction_dependency_tracking = WRITESET).  The primary
    keeps a bounded history of (table, key) hashes → last writer index
    and stamps each transaction at flush time with a MySQL-style
    dependency interval; a replica may execute it in parallel with
    anything later than [last_committed].  Hash collisions only create
    false dependencies (a later last_committed), never missed ones.
    When the history exceeds its capacity it is emptied and the floor
    raised, like MySQL's m_writeset_history_size. *)

type t

val create : capacity:int -> t

(** Number of tracked key hashes currently in the history. *)
val size : t -> int

(** Lower bound every stamp is clamped to (raised on history reset). *)
val floor : t -> int

(** Forget everything (role change: a fresh primary starts a new
    dependency epoch). *)
val clear : t -> unit

(** [stamp t ~index ~table ~ops] records the transaction at log [index]
    writing [ops]' keys in [table] and returns its [last_committed];
    always < [index].  It allocates nothing but the history's new
    entries. *)
val stamp : t -> index:int -> table:string -> ops:Event.row_op list -> int
