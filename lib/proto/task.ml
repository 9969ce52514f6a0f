type id = { uid : int; jid : int; tid : int }

let pp_id fmt { uid; jid; tid } = Format.fprintf fmt "<%d,%d,%d>" uid jid tid
let equal_id a b = a.uid = b.uid && a.jid = b.jid && a.tid = b.tid
let compare_id a b =
  match Int.compare a.uid b.uid with
  | 0 -> ( match Int.compare a.jid b.jid with 0 -> Int.compare a.tid b.tid | c -> c)
  | c -> c

(* Multiply each field by its own odd constant and fold the high bits of
   the sum onto the low ones, twice: [Hashtbl.Make] picks a bucket by
   the low bits alone, so ids that differ only in the high bits of one
   field must still differ there. *)
let hash_id { uid; jid; tid } =
  let h = (uid * 0x2545F4914F6CDD1D) + (jid * 0x9E3779B97F4A7C1) + (tid * 0x3C6EF372FE94F82B) in
  let h = (h lxor (h lsr 32)) * 0x2545F4914F6CDD1D in
  (h lxor (h lsr 29)) land max_int

module Tbl = Hashtbl.Make (struct
  type t = id

  let equal = equal_id
  let hash = hash_id
end)

type tprops =
  | No_props
  | Resources of int
  | Locality of int list
  | Priority of int
  | Deadline of int
  | Tenant of int

let pp_tprops fmt = function
  | No_props -> Format.pp_print_string fmt "none"
  | Resources bitmap -> Format.fprintf fmt "rsrc:%#x" bitmap
  | Locality nodes ->
    Format.fprintf fmt "local:[%s]"
      (String.concat ";" (List.map string_of_int nodes))
  | Priority p -> Format.fprintf fmt "prio:%d" p
  | Deadline d -> Format.fprintf fmt "deadline:%dns" d
  | Tenant t -> Format.fprintf fmt "tenant:%d" t

let equal_tprops a b =
  match (a, b) with
  | No_props, No_props -> true
  | Resources x, Resources y -> x = y
  | Locality x, Locality y -> List.equal Int.equal x y
  | Priority x, Priority y -> x = y
  | Deadline x, Deadline y -> x = y
  | Tenant x, Tenant y -> x = y
  | (No_props | Resources _ | Locality _ | Priority _ | Deadline _ | Tenant _), _ ->
    false

module Fn = struct
  let noop = 0
  let busy_loop = 1
  let data_task = 2
  let fetch_params = 3
end

type t = { id : id; fn_id : int; fn_par : int; tprops : tprops }

let pp fmt t =
  Format.fprintf fmt "task%a fn=%d par=%d props=%a" pp_id t.id t.fn_id t.fn_par
    pp_tprops t.tprops

let equal a b =
  equal_id a.id b.id && a.fn_id = b.fn_id && a.fn_par = b.fn_par
  && equal_tprops a.tprops b.tprops

let make ~uid ~jid ~tid ?(tprops = No_props) ~fn_id ~fn_par () =
  { id = { uid; jid; tid }; fn_id; fn_par; tprops }

let priority_level t = match t.tprops with Priority p -> p | _ -> 1
let required_resources t = match t.tprops with Resources r -> r | _ -> 0
let locality_nodes t = match t.tprops with Locality nodes -> nodes | _ -> []
let relative_deadline t = match t.tprops with Deadline d -> Some d | _ -> None
let tenant t = match t.tprops with Tenant x -> Some x | _ -> None
