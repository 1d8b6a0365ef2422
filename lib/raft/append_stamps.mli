(** Local append time per log index, read once the index commits (the
    [raft.commit_latency_us] samples).

    A float ring slotted by [index land (capacity - 1)] with an index
    column naming each slot's owner.  A stamp at or below the commit
    index is dead — the commit index only rises, so it can never be read
    again — and its slot is free.  The ring doubles rather than overwrite
    a live stamp, so no stamp is lost however far commits lag appends.
    Stamping and reading allocate nothing. *)

type t

(** An empty ring of 256 slots. *)
val create : unit -> t

val capacity : t -> int

(** [stamp t ~commit_index index time] records [time] as [index]'s append
    time, replacing an earlier stamp of the same index (a re-append after
    truncation).  An index at or below [commit_index] is not recorded:
    it is never read. *)
val stamp : t -> commit_index:int -> int -> float -> unit

(** [find t index]: [index]'s latest stamp, or [nan] when it has none.
    Valid for indexes above the commit index the ring was last stamped
    under. *)
val find : t -> int -> float
