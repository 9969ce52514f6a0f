open Draconis_net
open Draconis_proto

type t =
  | Fcfs
  | Resource_aware of { max_swaps : int }
  | Locality_aware of {
      rack_start_limit : int;
      global_start_limit : int;
      topology : Topology.t;
    }
  | Priority of { levels : int }
  | Edf of { default_deadline : int }
  | Wfq of { quantum : int; weights : int array }
  | Aging_priority of { levels : int; quantum : int }

type backend = Circular | Pifo

let backend = function
  | Fcfs | Resource_aware _ | Locality_aware _ | Priority _ -> Circular
  | Edf _ | Wfq _ | Aging_priority _ -> Pifo

let validate = function
  | Fcfs -> ()
  | Resource_aware { max_swaps } ->
    if max_swaps < 0 then invalid_arg "Policy: max_swaps must be >= 0"
  | Locality_aware { rack_start_limit; global_start_limit; _ } ->
    if rack_start_limit < 0 || global_start_limit < rack_start_limit then
      invalid_arg "Policy: need 0 <= rack_start_limit <= global_start_limit"
  | Priority { levels } ->
    if levels < 1 then invalid_arg "Policy: priority levels must be >= 1"
  | Edf { default_deadline } ->
    if default_deadline <= 0 then
      invalid_arg "Policy: edf default deadline must be positive"
  | Wfq { quantum; weights } ->
    if quantum <= 0 then invalid_arg "Policy: wfq quantum must be positive";
    if Array.length weights = 0 then invalid_arg "Policy: wfq needs >= 1 tenant";
    Array.iter
      (fun w -> if w < 1 then invalid_arg "Policy: wfq weights must be >= 1")
      weights
  | Aging_priority { levels; quantum } ->
    if levels < 1 then invalid_arg "Policy: aging levels must be >= 1";
    if quantum <= 0 then invalid_arg "Policy: aging quantum must be positive"

(* Fail-loud parser behind [bench --policy] / DRACONIS_POLICY: anything
   other than a known discipline with well-formed parameters raises. *)
let of_string s =
  let fail detail =
    invalid_arg
      (Printf.sprintf
         "Policy.of_string: %s (expected fcfs | priority:<levels> | \
          edf:<deadline_us> | wfq:<quantum_us>:<w1,w2,...> | \
          aging:<levels>:<quantum_us>; got %S)"
         detail s)
  in
  let int_field name v =
    match int_of_string_opt v with
    | Some n -> n
    | None -> fail (Printf.sprintf "%s %S is not an integer" name v)
  in
  let us_to_ns n = n * 1_000 in
  let t =
    match String.split_on_char ':' (String.trim s) with
    | [ "fcfs" ] -> Fcfs
    | [ "priority"; levels ] -> Priority { levels = int_field "levels" levels }
    | [ "edf"; deadline ] ->
      Edf { default_deadline = us_to_ns (int_field "deadline" deadline) }
    | [ "wfq"; quantum; weights ] ->
      let weights =
        match String.split_on_char ',' weights with
        | [ "" ] -> fail "wfq weight list is empty"
        | parts -> Array.of_list (List.map (int_field "weight") parts)
      in
      Wfq { quantum = us_to_ns (int_field "quantum" quantum); weights }
    | [ "aging"; levels; quantum ] ->
      Aging_priority
        {
          levels = int_field "levels" levels;
          quantum = us_to_ns (int_field "quantum" quantum);
        }
    | (("resource" | "locality") as name) :: _ ->
      fail (name ^ " policies need a topology; select them in code")
    | _ -> fail "unknown discipline"
  in
  (try validate t
   with Invalid_argument detail -> fail detail);
  t

let pp fmt = function
  | Fcfs -> Format.pp_print_string fmt "fcfs"
  | Resource_aware { max_swaps } -> Format.fprintf fmt "resource-aware(max_swaps=%d)" max_swaps
  | Locality_aware { rack_start_limit; global_start_limit; _ } ->
    Format.fprintf fmt "locality-aware(rack=%d,global=%d)" rack_start_limit
      global_start_limit
  | Priority { levels } -> Format.fprintf fmt "priority(levels=%d)" levels
  | Edf { default_deadline } -> Format.fprintf fmt "edf(deadline=%dns)" default_deadline
  | Wfq { quantum; weights } ->
    Format.fprintf fmt "wfq(quantum=%dns,weights=[%s])" quantum
      (String.concat ";" (Array.to_list (Array.map string_of_int weights)))
  | Aging_priority { levels; quantum } ->
    Format.fprintf fmt "aging-priority(levels=%d,quantum=%dns)" levels quantum

let queue_count = function
  | Fcfs | Resource_aware _ | Locality_aware _ -> 1
  | Priority { levels } -> levels
  (* PIFO-backed disciplines order one logical queue by rank. *)
  | Edf _ | Wfq _ | Aging_priority _ -> 1

let queue_of_task t (task : Task.t) =
  match t with
  | Fcfs | Resource_aware _ | Locality_aware _ | Edf _ | Wfq _ | Aging_priority _ -> 0
  | Priority { levels } ->
    let p = Task.priority_level task in
    if p < 1 || p > levels then levels - 1 else p - 1

let satisfies t ~entry ~info =
  let task = entry.Entry.task in
  match t with
  | Fcfs | Priority _ | Edf _ | Wfq _ | Aging_priority _ -> true
  | Resource_aware _ ->
    let required = Task.required_resources task in
    required land info.Message.exec_rsrc = required
  | Locality_aware { rack_start_limit; global_start_limit; topology } ->
    let locals = Task.locality_nodes task in
    let node = info.Message.exec_node in
    if locals = [] || List.mem node locals then true
    else if entry.Entry.skip > global_start_limit then true
    else if entry.Entry.skip > rack_start_limit then
      List.exists (fun local -> Topology.same_rack topology node local) locals
    else false

let swap_bound t ~queue_occupancy =
  match t with
  | Fcfs | Priority _ | Edf _ | Wfq _ | Aging_priority _ -> 0
  | Resource_aware { max_swaps } -> Int.min max_swaps queue_occupancy
  | Locality_aware { global_start_limit; _ } ->
    (* §5.3: recirculation per request is bounded by the global limit. *)
    Int.min (global_start_limit + 1) queue_occupancy

let uses_swapping = function
  | Fcfs | Priority _ | Edf _ | Wfq _ | Aging_priority _ -> false
  | Resource_aware _ | Locality_aware _ -> true
