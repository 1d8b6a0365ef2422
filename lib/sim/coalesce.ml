(* Per-(src, dst) frame coalescing for multiplexed transports.

   Many logical streams sharing one physical link (multi-Raft groups on
   the same nodes) would otherwise pay one network message per logical
   send.  This primitive buffers frames pushed towards the same (src,
   dst) pair and hands the accumulated batch to [flush] once per
   coalescing window: the first push to an empty buffer arms a flush
   event [window] from now; every push until then rides the same batch.
   With window = 0 the flush event still goes through the engine (delay
   0 preserves FIFO order with respect to other zero-delay events), so a
   frame is never delivered re-entrantly from inside [push].

   The structure is transport-agnostic: it never touches the network
   itself — [flush] does whatever "send one packet" means for the
   embedder. *)

type key = string * string (* (src, dst) *)

type 'frame pending = { mutable frames : 'frame list (* newest first *) }

type 'frame t = {
  engine : Engine.t;
  window : float;
  flush : src:string -> dst:string -> 'frame list -> unit;
  buffers : (key, 'frame pending) Hashtbl.t;
}

let create ~engine ~window ~flush () =
  if window < 0.0 then invalid_arg "Coalesce.create: negative window";
  {
    engine;
    window;
    flush;
    buffers = Hashtbl.create 64;
  }

let window t = t.window

let flush_key t key =
  match Hashtbl.find_opt t.buffers key with
  | None -> ()
  | Some pending ->
    Hashtbl.remove t.buffers key;
    let src, dst = key in
    let frames = List.rev pending.frames in
    t.flush ~src ~dst frames

let push t ~src ~dst frame =
  let key = (src, dst) in
  match Hashtbl.find_opt t.buffers key with
  | Some pending -> pending.frames <- frame :: pending.frames
  | None ->
    Hashtbl.replace t.buffers key { frames = [ frame ] };
    ignore
      (Engine.schedule t.engine ~delay:t.window (fun () -> flush_key t key)
        : Engine.handle)

(* Drain every buffer immediately (shutdown, deterministic test
   endpoints).  The armed flush events then find empty buffers and
   no-op. *)
let flush_all t =
  let keys = Hashtbl.fold (fun k _ acc -> k :: acc) t.buffers [] in
  List.iter (flush_key t) keys
