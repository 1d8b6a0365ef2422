(** Per-(src, dst) frame coalescing for multiplexed transports.

    Buffers frames pushed towards the same (src, dst) pair and delivers
    the accumulated batch to [flush] once per coalescing window: the
    first push to an empty buffer arms a flush event [window] from now;
    every later push until the flush rides the same batch.  Frame order
    within a batch is push order, and batches towards one pair flush in
    arm order, so a FIFO transport stays FIFO end to end.

    Transport-agnostic: [flush] does whatever "send one packet" means
    for the embedder (the shard mux turns a batch into one network
    message carrying many Raft groups' frames). *)

type 'frame t

(** [flush] is invoked from an engine event — never re-entrantly from
    inside {!push} — with the batch in push order. *)
val create :
  engine:Engine.t ->
  window:float ->
  flush:(src:string -> dst:string -> 'frame list -> unit) ->
  unit ->
  'frame t

val window : 'frame t -> float

(** Buffer one frame towards (src, dst); arms a flush [window] from now
    if the pair's buffer was empty. *)
val push : 'frame t -> src:string -> dst:string -> 'frame -> unit

(** Drain every buffer immediately (shutdown or deterministic test
    endpoints); the armed events then no-op. *)
val flush_all : 'frame t -> unit
