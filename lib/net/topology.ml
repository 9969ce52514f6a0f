type t = { nodes : int; racks : int; rack_of_node : int array }

let create ~nodes ~racks =
  if racks < 1 || racks > nodes then
    invalid_arg "Topology.create: need 1 <= racks <= nodes";
  let rack_of_node = Array.init nodes (fun i -> i * racks / nodes) in
  { nodes; racks; rack_of_node }

let nodes t = t.nodes
let racks t = t.racks

let rack_of t host =
  if host < 0 || host >= t.nodes then invalid_arg "Topology.rack_of: bad host";
  t.rack_of_node.(host)

let same_rack t a b = rack_of t a = rack_of t b

let hosts_in_rack t r =
  if r < 0 || r >= t.racks then invalid_arg "Topology.hosts_in_rack: bad rack";
  List.filter (fun h -> t.rack_of_node.(h) = r) (List.init t.nodes Fun.id)
