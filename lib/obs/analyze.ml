type phase_row = {
  phase : string;
  count : int;
  sum_ns : int;
  mean_ns : float;
  p50_ns : int;
  p99_ns : int;
  max_ns : int;
}

type top_entry = {
  task : string;
  total_ns : int;
  sched_ns : int;
  flags : string;
  breakdown : (string * int) list;
}

type attribution = {
  tasks : int;
  incomplete : int;
  exact : bool;
  verified : bool;
  total_sum_ns : int;
  phases : phase_row list;
  critical : (string * int) list;
  anomalies : (string * int) list;
  top : top_entry list;
}

type run = {
  label : string;
  events : int;
  dropped_events : int;
  attribution : attribution option;
}

(* -- extraction ------------------------------------------------------------ *)

let ( let* ) = Result.bind

let number name json ~default =
  match Json.member name json with
  | Some v -> (match Json.to_number v with Some f -> f | None -> default)
  | None -> default

let int_field name json ~default = int_of_float (number name json ~default:(float_of_int default))

let bool_field name json ~default =
  match Json.member name json with Some (Json.Bool b) -> b | _ -> default

let string_field name json ~default =
  match Json.member name json with
  | Some v -> Option.value (Json.to_string v) ~default
  | None -> default

let obj_fields name json =
  match Json.member name json with Some (Json.Obj fields) -> fields | _ -> []

let int_pairs name json =
  List.filter_map
    (fun (k, v) -> Option.map (fun f -> (k, int_of_float f)) (Json.to_number v))
    (obj_fields name json)

let parse_phase (name, v) =
  {
    phase = name;
    count = int_field "count" v ~default:0;
    sum_ns = int_field "sum_ns" v ~default:0;
    mean_ns = number "mean_ns" v ~default:0.0;
    p50_ns = int_field "p50_ns" v ~default:0;
    p99_ns = int_field "p99_ns" v ~default:0;
    max_ns = int_field "max_ns" v ~default:0;
  }

let parse_top v =
  {
    task = string_field "task" v ~default:"?";
    total_ns = int_field "total_ns" v ~default:0;
    sched_ns = int_field "sched_ns" v ~default:(-1);
    flags = string_field "flags" v ~default:"-";
    breakdown = obj_fields "phases" v
                |> List.filter_map (fun (k, v) ->
                       Option.map (fun f -> (k, int_of_float f)) (Json.to_number v));
  }

let parse_attribution v =
  let phases = List.map parse_phase (obj_fields "phases" v) in
  let top =
    match Json.member "top" v with
    | Some (Json.List entries) -> List.map parse_top entries
    | _ -> []
  in
  let total_sum_ns = int_field "total_sum_ns" v ~default:0 in
  (* Independent integer re-check of the telescoping invariant: phase
     sums must reconstitute the end-to-end total, globally and for every
     reported task. *)
  let verified =
    List.fold_left (fun acc p -> acc + p.sum_ns) 0 phases = total_sum_ns
    && List.for_all
         (fun t -> List.fold_left (fun acc (_, v) -> acc + v) 0 t.breakdown = t.total_ns)
         top
  in
  {
    tasks = int_field "tasks" v ~default:0;
    incomplete = int_field "incomplete" v ~default:0;
    exact = bool_field "exact" v ~default:false;
    verified;
    total_sum_ns;
    phases;
    critical = int_pairs "critical" v;
    anomalies = int_pairs "anomalies" v;
    top;
  }

let parse_run v =
  {
    label = string_field "label" v ~default:"?";
    events = int_field "events" v ~default:0;
    (* draconis-obs/1 called the field [dropped]. *)
    dropped_events =
      int_field "dropped_events" v ~default:(int_field "dropped" v ~default:0);
    attribution = Option.map parse_attribution (Json.member "attribution" v);
  }

let load ~path =
  let* json = Json.parse_file path in
  let schema = string_field "schema" json ~default:"" in
  let known = [ "draconis-obs/1"; "draconis-obs/2"; "draconis-obs/3"; "draconis-obs/4" ] in
  if not (List.mem schema known) then
    Error (Printf.sprintf "%s: expected a draconis-obs metrics export, got schema %S" path schema)
  else
    match Json.member "runs" json with
    | Some (Json.List runs) -> Ok (List.map parse_run runs)
    | _ -> Error (Printf.sprintf "%s: missing \"runs\" array" path)

(* -- rendering ------------------------------------------------------------- *)

let us ns = Printf.sprintf "%.1f" (float_of_int ns /. 1e3)

let share sum total =
  if total <= 0 then "-"
  else Printf.sprintf "%.1f%%" (100.0 *. float_of_int sum /. float_of_int total)

let phase_table a =
  let table =
    Draconis_stats.Table.create
      ~columns:[ "phase"; "count"; "mean (us)"; "p50 (us)"; "p99 (us)"; "max (us)"; "share" ]
  in
  List.iter
    (fun p ->
      if p.count > 0 then
        Draconis_stats.Table.add_row table
          [
            p.phase; string_of_int p.count;
            Printf.sprintf "%.1f" (p.mean_ns /. 1e3);
            us p.p50_ns; us p.p99_ns; us p.max_ns;
            share p.sum_ns a.total_sum_ns;
          ])
    a.phases;
  table

let counts_line pairs =
  String.concat ", "
    (List.filter_map
       (fun (name, n) -> if n > 0 then Some (Printf.sprintf "%s %d" name n) else None)
       pairs)

let top_line i (t : top_entry) =
  let dominant =
    List.fold_left (fun acc (_, v as p) ->
        match acc with Some (_, best) when best >= v -> acc | _ -> Some p)
      None t.breakdown
  in
  Printf.sprintf "  %2d. task %-12s total %8s us  sched %8s us  flags %-10s %s" (i + 1)
    t.task (us t.total_ns)
    (if t.sched_ns >= 0 then us t.sched_ns else "-")
    t.flags
    (match dominant with
    | Some (phase, v) -> Printf.sprintf "dominant %s %s us (%s)" phase (us v) (share v t.total_ns)
    | None -> "")

let render_text runs =
  let buf = Buffer.create 4096 in
  List.iter
    (fun r ->
      Buffer.add_string buf
        (Printf.sprintf "== %s ==\nevents %d (dropped_events %d)\n" r.label r.events
           r.dropped_events);
      (match r.attribution with
      | None -> Buffer.add_string buf "no phase attribution recorded for this run\n"
      | Some a ->
        Buffer.add_string buf
          (Printf.sprintf "tasks %d sealed, %d incomplete; exact sum: %s\n" a.tasks
             a.incomplete
             (if a.exact && a.verified then "yes (re-verified offline)"
              else if a.exact then "claimed, OFFLINE CHECK FAILED"
              else "NO"));
        Buffer.add_string buf (Draconis_stats.Table.render (phase_table a));
        let critical = counts_line a.critical in
        if critical <> "" then
          Buffer.add_string buf (Printf.sprintf "critical path (dominant phase): %s\n" critical);
        let anomalies = counts_line a.anomalies in
        if anomalies <> "" then
          Buffer.add_string buf (Printf.sprintf "anomalies: %s\n" anomalies);
        if a.top <> [] then begin
          Buffer.add_string buf "slowest tasks:\n";
          List.iteri (fun i t -> Buffer.add_string buf (top_line i t ^ "\n")) a.top
        end);
      Buffer.add_char buf '\n')
    runs;
  Buffer.contents buf

let escape = Chrome_trace.escape

let json_float f =
  if Float.is_nan f || Float.abs f = Float.infinity then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let pairs_json pairs =
  String.concat ","
    (List.map (fun (name, n) -> Printf.sprintf "\"%s\":%d" (escape name) n) pairs)

let attribution_json a =
  Printf.sprintf
    "{\"tasks\":%d,\"incomplete\":%d,\"exact\":%b,\"verified\":%b,\"total_sum_ns\":%d,\
     \"phases\":{%s},\"critical\":{%s},\"anomalies\":{%s},\"top\":[%s]}"
    a.tasks a.incomplete a.exact a.verified a.total_sum_ns
    (String.concat ","
       (List.map
          (fun p ->
            Printf.sprintf
              "\"%s\":{\"count\":%d,\"sum_ns\":%d,\"mean_ns\":%s,\"p50_ns\":%d,\"p99_ns\":%d,\"max_ns\":%d}"
              (escape p.phase) p.count p.sum_ns (json_float p.mean_ns) p.p50_ns p.p99_ns
              p.max_ns)
          a.phases))
    (pairs_json a.critical) (pairs_json a.anomalies)
    (String.concat ","
       (List.map
          (fun t ->
            Printf.sprintf
              "{\"task\":\"%s\",\"total_ns\":%d,\"sched_ns\":%d,\"flags\":\"%s\",\"phases\":{%s}}"
              (escape t.task) t.total_ns t.sched_ns (escape t.flags)
              (pairs_json t.breakdown))
          a.top))

let render_json runs =
  Printf.sprintf "{\n  \"schema\": \"draconis-trace/1\",\n  \"runs\": [\n%s\n  ]\n}\n"
    (String.concat ",\n"
       (List.map
          (fun r ->
            Printf.sprintf "    {\"label\":\"%s\",\"events\":%d,\"dropped_events\":%d%s}"
              (escape r.label) r.events r.dropped_events
              (match r.attribution with
              | None -> ""
              | Some a -> ",\"attribution\":" ^ attribution_json a))
          runs))

let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let render_csv runs =
  let buf = Buffer.create 2048 in
  Buffer.add_string buf "label,phase,count,sum_ns,mean_ns,p50_ns,p99_ns,max_ns,share_pct\n";
  List.iter
    (fun r ->
      match r.attribution with
      | None -> ()
      | Some a ->
        List.iter
          (fun p ->
            Buffer.add_string buf
              (Printf.sprintf "%s,%s,%d,%d,%s,%d,%d,%d,%s\n" (csv_escape r.label)
                 (csv_escape p.phase) p.count p.sum_ns (json_float p.mean_ns) p.p50_ns
                 p.p99_ns p.max_ns
                 (if a.total_sum_ns > 0 then
                    Printf.sprintf "%.2f"
                      (100.0 *. float_of_int p.sum_ns /. float_of_int a.total_sum_ns)
                  else "")))
          a.phases)
    runs;
  Buffer.contents buf
