type entry = {
  name : string;
  wall_s : float;
  outcomes : Runner.outcome list;
}

(* Mutated from the coordinating domain only: figures hand their pooled
   rows to [add_outcomes] after the pool has joined its workers. *)
let entries : entry list ref = ref []
let pending : Runner.outcome list ref = ref []

let reset () =
  entries := [];
  pending := []

let add_outcomes rows = pending := !pending @ rows

let finish_experiment ~name ~wall_s =
  entries := !entries @ [ { name; wall_s; outcomes = !pending } ];
  pending := []

let events entry =
  List.fold_left (fun acc (o : Runner.outcome) -> acc + o.events) 0 entry.outcomes

let json_escape s =
  let buf = Buffer.create (String.length s + 2) in
  String.iter
    (fun c ->
      match c with
      | '"' -> Buffer.add_string buf "\\\""
      | '\\' -> Buffer.add_string buf "\\\\"
      | '\n' -> Buffer.add_string buf "\\n"
      | c when Char.code c < 0x20 -> Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char buf c)
    s;
  Buffer.contents buf

(* JSON has no NaN/infinity literals; map them to 0. *)
let json_float f =
  if Float.is_nan f || Float.abs f = Float.infinity then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let outcome_json (o : Runner.outcome) =
  (* Optional per-phase percentiles; present only for attributed runs so
     unobserved reports stay byte-identical to schema draconis-bench/1
     as first shipped. *)
  let phases =
    if o.phases = [] then ""
    else
      Printf.sprintf ",\"phases\":{%s}"
        (String.concat ","
           (List.map
              (fun (name, p50, p99) ->
                Printf.sprintf "\"%s\":{\"p50_ns\":%d,\"p99_ns\":%d}" (json_escape name)
                  p50 p99)
              o.phases))
  in
  (* Calendar-only benchmark rows have no scheduling-latency semantics:
     serialize the block as null so draconis-trace compare skips it
     (a null never checks against a number) instead of pinning future
     runs to meaningless zeros. *)
  let latency =
    if o.has_latency then
      Printf.sprintf
        "\"sched_p50_ns\":%d,\"sched_p99_ns\":%d,\"sched_mean_ns\":%s,\
         \"decisions_per_sec\":%s"
        o.sched_p50 o.sched_p99 (json_float o.sched_mean)
        (json_float o.decisions_per_sec)
    else
      "\"sched_p50_ns\":null,\"sched_p99_ns\":null,\"sched_mean_ns\":null,\
       \"decisions_per_sec\":null"
  in
  (* Wall-clock event throughput rides along on benchmark rows only; it
     is informational (compare never checks it), and omitting it for
     figure rows keeps their serialization byte-identical to before. *)
  let rate =
    if o.events_per_sec > 0.0 then
      Printf.sprintf ",\"events_per_sec\":%s" (json_float o.events_per_sec)
    else ""
  in
  Printf.sprintf
    "{\"system\":\"%s\",\"load_tps\":%s,%s,\"submitted\":%d,\"completed\":%d,\
     \"timeouts\":%d,\"rejected\":%d,\"recirc_fraction\":%s,\"recirc_drops\":%d,\
     \"swaps\":%d,\"recirculations\":%d,\"repair_flags\":%d,\"events\":%d%s,\
     \"drained\":%b%s}"
    (json_escape o.system) (json_float o.load_tps) latency o.submitted
    o.completed o.timeouts o.rejected
    (json_float o.recirc_fraction)
    o.recirc_drops o.swaps o.recirculations o.repair_flags o.events rate o.drained phases

let entry_json e =
  let ev = events e in
  let events_per_sec = if e.wall_s > 0.0 then float_of_int ev /. e.wall_s else 0.0 in
  Printf.sprintf
    "    {\"name\":\"%s\",\"wall_s\":%.3f,\"events\":%d,\"events_per_sec\":%s,\n\
     \     \"outcomes\":[%s]}"
    (json_escape e.name) e.wall_s ev (json_float events_per_sec)
    (String.concat "," (List.map outcome_json e.outcomes))

let to_json ~jobs ~quick =
  let total_wall = List.fold_left (fun acc e -> acc +. e.wall_s) 0.0 !entries in
  let total_events = List.fold_left (fun acc e -> acc + events e) 0 !entries in
  Printf.sprintf
    "{\n\
     \  \"schema\": \"draconis-bench/1\",\n\
     \  \"jobs\": %d,\n\
     \  \"quick\": %b,\n\
     \  \"workload_seed\": %d,\n\
     \  \"total_wall_s\": %.3f,\n\
     \  \"total_events\": %d,\n\
     \  \"experiments\": [\n%s\n  ]\n}\n"
    jobs quick (Runner.workload_seed ()) total_wall total_events
    (String.concat ",\n" (List.map entry_json !entries))

let write ~path ~jobs ~quick =
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (to_json ~jobs ~quick))
