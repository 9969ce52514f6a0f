type check = {
  key : string;
  field : string;
  base : float;
  cur : float;
  allowed : float;
  ok : bool;
}

type t = {
  tol_pct : float;
  checks : check list;
  missing : string list;
  extra : string list;
  notes : string list;
}

let ( let* ) = Result.bind

(* Deterministic outcome fields and their absolute slack floors.  The
   floors absorb quantisation noise (a 1-tick percentile step, a task
   landing either side of the horizon) on near-zero baselines, where a
   pure percentage band would be vacuous. *)
let floor_ns = 1000.0
let floor_count = 8.0

let fields =
  [
    ("sched_p50_ns", floor_ns);
    ("sched_p99_ns", floor_ns);
    ("sched_mean_ns", floor_ns);
    ("decisions_per_sec", 50.0);
    ("submitted", floor_count);
    ("completed", floor_count);
    ("timeouts", floor_count);
    ("rejected", floor_count);
    ("swaps", floor_count);
    ("recirculations", floor_count);
    ("repair_flags", floor_count);
  ]

let number name json =
  Option.bind (Json.member name json) Json.to_number

let string_field name json ~default =
  match Json.member name json with
  | Some v -> Option.value (Json.to_string v) ~default
  | None -> default

let outcome_key ~experiment outcome =
  Printf.sprintf "%s/%s@%g" experiment
    (string_field "system" outcome ~default:"?")
    (Option.value (number "load_tps" outcome) ~default:0.0)

(* (key, outcome) pairs in file order.  A report may repeat a key (figf
   lists every system@load once per fault plan), so from its second
   occurrence on a key carries its occurrence number: the n-th
   occurrence in one report pairs with the n-th in the other. *)
let outcomes json =
  let seen = Hashtbl.create 64 in
  let numbered key =
    let n = 1 + Option.value (Hashtbl.find_opt seen key) ~default:0 in
    Hashtbl.replace seen key n;
    if n = 1 then key else Printf.sprintf "%s#%d" key n
  in
  match Json.member "experiments" json with
  | Some (Json.List experiments) ->
    List.concat_map
      (fun e ->
        let name = string_field "name" e ~default:"?" in
        match Json.member "outcomes" e with
        | Some (Json.List outcomes) ->
          List.map (fun o -> (numbered (outcome_key ~experiment:name o), o)) outcomes
        | _ -> [])
      experiments
  | _ -> []

let load path =
  let* json = Json.parse_file path in
  let schema = string_field "schema" json ~default:"" in
  if schema <> "draconis-bench/1" then
    Error (Printf.sprintf "%s: expected a draconis-bench report, got schema %S" path schema)
  else Ok json

let make_check ~tol_pct ~key ~field ~allowed_floor base cur =
  let allowed = Float.max allowed_floor (tol_pct *. Float.abs base) in
  { key; field; base; cur; allowed; ok = Float.abs (cur -. base) <= allowed }

let phase_pairs outcome =
  match Json.member "phases" outcome with
  | Some (Json.Obj pairs) -> pairs
  | _ -> []

let compare_outcome ~tol_pct ~key base cur =
  let field_checks =
    List.filter_map
      (fun (field, floor) ->
        match (number field base, number field cur) with
        | Some b, Some c -> Some (make_check ~tol_pct ~key ~field ~allowed_floor:floor b c)
        | _ -> None)
      fields
  in
  let drained v =
    match Json.member "drained" v with Some (Json.Bool b) -> b | _ -> false
  in
  let drained_check =
    let b = drained base and c = drained cur in
    {
      key;
      field = "drained";
      base = (if b then 1.0 else 0.0);
      cur = (if c then 1.0 else 0.0);
      allowed = 0.0;
      ok = b = c;
    }
  in
  (* Per-phase percentiles ride along when both reports carry them. *)
  let phase_checks =
    let cur_phases = phase_pairs cur in
    List.concat_map
      (fun (phase, bv) ->
        match List.assoc_opt phase cur_phases with
        | None -> []
        | Some cv ->
          List.filter_map
            (fun pct ->
              match (number pct bv, number pct cv) with
              | Some b, Some c ->
                Some
                  (make_check ~tol_pct ~key
                     ~field:(Printf.sprintf "phase.%s.%s" phase pct)
                     ~allowed_floor:floor_ns b c)
              | _ -> None)
            [ "p50_ns"; "p99_ns" ])
      (phase_pairs base)
  in
  field_checks @ [ drained_check ] @ phase_checks

let informational name base cur =
  match (number name base, number name cur) with
  | Some b, Some c when b <> c -> Some (Printf.sprintf "%s: base %g, current %g" name b c)
  | _ -> None

let run ~tol_pct base cur =
  let base_outcomes = outcomes base in
  let cur_outcomes = outcomes cur in
  let checks, missing =
    List.fold_left
      (fun (checks, missing) (key, b) ->
        match List.assoc_opt key cur_outcomes with
        | None -> (checks, key :: missing)
        | Some c -> (checks @ compare_outcome ~tol_pct ~key b c, missing))
      ([], []) base_outcomes
  in
  let extra =
    List.filter_map
      (fun (key, _) ->
        if List.mem_assoc key base_outcomes then None else Some key)
      cur_outcomes
  in
  let notes =
    List.filter_map Fun.id
      [
        (match (Json.member "quick" base, Json.member "quick" cur) with
        | Some (Json.Bool b), Some (Json.Bool c) when b <> c ->
          Some (Printf.sprintf "quick flag differs: base %b, current %b" b c)
        | _ -> None);
        informational "total_events" base cur;
        informational "jobs" base cur;
      ]
  in
  { tol_pct; checks; missing = List.rev missing; extra; notes }

let compare_files ?(tol_pct = 0.10) ~base_path ~cur_path () =
  let* base = load base_path in
  let* cur = load cur_path in
  Ok (run ~tol_pct base cur)

let passed t = t.missing = [] && List.for_all (fun c -> c.ok) t.checks

let pp_value field v =
  if field = "drained" then (if v = 0.0 then "false" else "true")
  else if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%g" v

let render t =
  let buf = Buffer.create 1024 in
  let failures = List.filter (fun c -> not c.ok) t.checks in
  Buffer.add_string buf
    (Printf.sprintf "compared %d field(s) across %d outcome(s), tolerance %.1f%%\n"
       (List.length t.checks)
       (List.length
          (List.sort_uniq compare (List.map (fun c -> c.key) t.checks)))
       (100.0 *. t.tol_pct));
  List.iter
    (fun c ->
      Buffer.add_string buf
        (Printf.sprintf "FAIL %s %s: base %s, current %s (|delta| %s > allowed %s)\n" c.key
           c.field (pp_value c.field c.base) (pp_value c.field c.cur)
           (pp_value "" (Float.abs (c.cur -. c.base)))
           (pp_value "" c.allowed)))
    failures;
  List.iter
    (fun key -> Buffer.add_string buf (Printf.sprintf "FAIL missing from current: %s\n" key))
    t.missing;
  List.iter
    (fun key -> Buffer.add_string buf (Printf.sprintf "note: only in current: %s\n" key))
    t.extra;
  List.iter (fun n -> Buffer.add_string buf (Printf.sprintf "note: %s\n" n)) t.notes;
  Buffer.add_string buf
    (if passed t then "PASS: no regressions beyond tolerance\n"
     else
       Printf.sprintf "FAIL: %d regression(s)\n"
         (List.length failures + List.length t.missing));
  Buffer.contents buf
