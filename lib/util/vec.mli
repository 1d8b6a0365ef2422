(** Growable array (OCaml 5.1 predates Stdlib.Dynarray): O(1) push and
    random access; log entry storage maps Raft indexes to slots. *)

type 'a t

val create : dummy:'a -> 'a t

val length : 'a t -> int

val is_empty : 'a t -> bool

(** Raises [Invalid_argument] out of bounds. *)
val get : 'a t -> int -> 'a

val get_opt : 'a t -> int -> 'a option

val set : 'a t -> int -> 'a -> unit

val push : 'a t -> 'a -> unit

(** Shrink to [n] elements, returning the removed tail in order. *)
val truncate_to : 'a t -> int -> 'a list

val iter : 'a t -> ('a -> unit) -> unit

val iteri : 'a t -> (int -> 'a -> unit) -> unit

val fold : 'a t -> init:'b -> ('b -> 'a -> 'b) -> 'b

val to_list : 'a t -> 'a list

(** Elements in [lo, hi) as a list (clamped). *)
val slice : 'a t -> lo:int -> hi:int -> 'a list
