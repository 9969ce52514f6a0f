type t = Switch | Host of int

let equal a b =
  match (a, b) with
  | Switch, Switch -> true
  | Host x, Host y -> x = y
  | Switch, Host _ | Host _, Switch -> false

let compare a b =
  match (a, b) with
  | Switch, Switch -> 0
  | Switch, Host _ -> -1
  | Host _, Switch -> 1
  | Host x, Host y -> compare x y

let pp fmt = function
  | Switch -> Format.pp_print_string fmt "switch"
  | Host i -> Format.fprintf fmt "host-%d" i

let to_string a = Format.asprintf "%a" pp a

let host_id = function
  | Host i -> i
  | Switch -> invalid_arg "Addr.host_id: switch has no host id"

let is_switch = function Switch -> true | Host _ -> false

module Port_tbl = Hashtbl.Make (struct
  type nonrec t = t * int

  let equal (a, i) (b, j) = Int.equal i j && equal a b
  let hash (a, i) = (((match a with Switch -> 0 | Host h -> h + 1) * 65599) + i) land max_int
end)
