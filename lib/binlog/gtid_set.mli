(** GTID sets: per-source disjoint inclusive intervals — the structure
    behind MySQL's "uuid:1-5:7-9" notation.

    These sets are the replica-position metadata MyRaft preserves: every
    binlog file's Previous-GTIDs header, each server's gtid_executed,
    and the adjustment made when a demoted leader's log suffix is
    truncated (§3.3). *)

type t

val empty : t

val is_empty : t -> bool

(** Add a closed gno interval.  Requires [1 <= lo <= hi]. *)
val add_interval : t -> source:string -> lo:int -> hi:int -> t

val add : t -> Gtid.t -> t

val remove : t -> Gtid.t -> t

val contains : t -> Gtid.t -> bool

val union : t -> t -> t

(** Number of GTIDs in the set. *)
val cardinal : t -> int

val subset : t -> t -> bool

val equal : t -> t -> bool

(** Largest gno present for [source], 0 if none — used to continue a gno
    sequence after promotion. *)
val max_gno : t -> source:string -> int

val fold_gtids : t -> init:'a -> ('a -> Gtid.t -> 'a) -> 'a

(** MySQL-style rendering, e.g. "srv1:1-5:7,srv2:3". *)
val to_string : t -> string

val pp : Format.formatter -> t -> unit

(** {2 Owner-side accumulator}

    A mutable cell around a set for an owner that adds one GTID per
    transaction: a binlog's GTID set, an engine's [gtid_executed].  It
    keeps an open tip interval beside the persistent set, so the next
    gno of the tip's source only bumps an int.  {!Acc.get} folds the tip
    in with {!add_interval} and returns the same set, map shape and
    [Marshal] bytes included, that the chain of {!add} calls would have
    built.  A source's first GTID still goes through {!add}. *)
module Acc : sig
  type set := t

  type t

  (** An empty set. *)
  val create : unit -> t

  (** Allocates nothing when [gtid] extends the open tip. *)
  val add : t -> Gtid.t -> unit

  (** Checks the tip first; allocates nothing. *)
  val contains : t -> Gtid.t -> bool

  (** The whole set, tip folded in. *)
  val get : t -> set

  (** Replace the whole set (the tip is dropped). *)
  val set : t -> set -> unit

  val remove : t -> Gtid.t -> unit

  val union : t -> set -> unit
end
