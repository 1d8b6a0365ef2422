(* Minimal tracing facility for the simulator.

   Traces are timestamped with virtual time and collected in memory so
   tests can assert on them; when [echo] is on they are also printed,
   which the examples use to narrate scenarios. *)

type entry = { time : float; tag : string; message : string }

type t = {
  mutable entries : entry list; (* newest first *)
  mutable echo : bool;
  engine : Engine.t;
}

let create ?(echo = false) engine = { entries = []; echo; engine }

let record t ~tag fmt =
  Format.kasprintf
    (fun message ->
      let time = Engine.now t.engine in
      t.entries <- { time; tag; message } :: t.entries;
      if t.echo then Format.printf "[%10.0fus] %-12s %s@." time tag message)
    fmt

let entries t = List.rev t.entries

let entries_with_tag t tag = List.filter (fun e -> e.tag = tag) (entries t)

let clear t = t.entries <- []
