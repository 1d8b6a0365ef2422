(* Physical placement of simulated nodes: which geographic region each node
   lives in, and which nodes exist at all.  Node identifiers are plain
   strings ("mysql1.frc", "logtailer2.prn") so traces read naturally. *)

type node_id = string

type region = string

type node_info = { id : node_id; region : region }

type t = {
  mutable nodes : node_info list; (* insertion order preserved *)
  by_id : (node_id, node_info) Hashtbl.t;
}

let create () = { nodes = []; by_id = Hashtbl.create 16 }

let add_node t ~id ~region =
  if Hashtbl.mem t.by_id id then invalid_arg ("Topology.add_node: duplicate " ^ id);
  let info = { id; region } in
  Hashtbl.replace t.by_id id info;
  t.nodes <- t.nodes @ [ info ]

let mem t id = Hashtbl.mem t.by_id id

let region_of t id =
  match Hashtbl.find_opt t.by_id id with
  | Some info -> info.region
  | None -> invalid_arg ("Topology.region_of: unknown node " ^ id)

let nodes t = List.map (fun n -> n.id) t.nodes

let nodes_in_region t region =
  List.filter_map (fun n -> if n.region = region then Some n.id else None) t.nodes

let regions t =
  let seen = Hashtbl.create 8 in
  List.filter_map
    (fun n ->
      if Hashtbl.mem seen n.region then None
      else begin
        Hashtbl.replace seen n.region ();
        Some n.region
      end)
    t.nodes

let same_region t a b = region_of t a = region_of t b
