open Draconis_stats

let escape = Chrome_trace.escape

let json_float f =
  if Float.is_nan f || Float.abs f = Float.infinity then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let histogram_json sampler =
  let n = Sampler.count sampler in
  if n = 0 then "{\"count\":0}"
  else
    Printf.sprintf
      "{\"count\":%d,\"min\":%d,\"max\":%d,\"mean\":%s,\"p50\":%d,\"p99\":%d}" n
      (Sampler.min sampler) (Sampler.max sampler)
      (json_float (Sampler.mean sampler))
      (Sampler.percentile sampler 50.0)
      (Sampler.percentile sampler 99.0)

let fields_json pairs value_of =
  String.concat ","
    (List.map (fun (name, v) -> Printf.sprintf "\"%s\":%s" (escape name) (value_of v)) pairs)

let run_json recorder =
  let series_json points =
    "["
    ^ String.concat "," (List.map (fun (t, v) -> Printf.sprintf "[%d,%d]" t v) points)
    ^ "]"
  in
  let attribution =
    match Recorder.attribution recorder with
    | None -> ""
    | Some json -> Printf.sprintf ",\n     \"attribution\":%s" json
  in
  let int_section =
    match Recorder.int_telemetry recorder with
    | None -> ""
    | Some json -> Printf.sprintf ",\n     \"int\":%s" json
  in
  Printf.sprintf
    "    {\"label\":\"%s\",\"events\":%d,\"dropped_events\":%d,\n\
     \     \"counters\":{%s},\n\
     \     \"gauges\":{%s},\n\
     \     \"histograms\":{%s},\n\
     \     \"series\":{%s}%s%s}"
    (escape (Recorder.label recorder))
    (Recorder.event_count recorder)
    (Recorder.dropped recorder)
    (fields_json (Recorder.counters recorder) string_of_int)
    (fields_json (Recorder.gauges recorder) string_of_int)
    (fields_json (Recorder.histograms recorder) histogram_json)
    (fields_json (Recorder.series recorder) series_json)
    attribution int_section

(* Schema v3 = v2 plus the optional per-run ["int"] telemetry section;
   v4 = v3 with the repair count under one counter name
   ([switch.repairs_launched]; v3 also wrote it as [queue.repair_flags]). *)
let metrics_json recorders =
  Printf.sprintf "{\n  \"schema\": \"draconis-obs/4\",\n  \"runs\": [\n%s\n  ]\n}\n"
    (String.concat ",\n" (List.map run_json recorders))

(* RFC 4180: quote any field containing a separator, a quote, or a line
   break (CR or LF), doubling embedded quotes. *)
let csv_escape s =
  if String.exists (fun c -> c = ',' || c = '"' || c = '\n' || c = '\r') s then
    "\"" ^ String.concat "\"\"" (String.split_on_char '"' s) ^ "\""
  else s

let metrics_csv recorders =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "label,kind,name,time_ns,value\n";
  let row label kind name time value =
    Buffer.add_string buf
      (Printf.sprintf "%s,%s,%s,%s,%s\n" (csv_escape label) kind (csv_escape name) time
         value)
  in
  List.iter
    (fun recorder ->
      let label = Recorder.label recorder in
      row label "recorder" "events" "" (string_of_int (Recorder.event_count recorder));
      row label "recorder" "dropped_events" "" (string_of_int (Recorder.dropped recorder));
      List.iter
        (fun (name, v) -> row label "counter" name "" (string_of_int v))
        (Recorder.counters recorder);
      List.iter
        (fun (name, v) -> row label "gauge" name "" (string_of_int v))
        (Recorder.gauges recorder);
      List.iter
        (fun (name, sampler) ->
          if Sampler.count sampler > 0 then begin
            row label "histogram" (name ^ ".count") "" (string_of_int (Sampler.count sampler));
            row label "histogram" (name ^ ".mean") "" (json_float (Sampler.mean sampler));
            row label "histogram" (name ^ ".p50") ""
              (string_of_int (Sampler.percentile sampler 50.0));
            row label "histogram" (name ^ ".p99") ""
              (string_of_int (Sampler.percentile sampler 99.0))
          end)
        (Recorder.histograms recorder);
      List.iter
        (fun (name, points) ->
          List.iter
            (fun (t, v) -> row label "series" name (string_of_int t) (string_of_int v))
            points)
        (Recorder.series recorder))
    recorders;
  Buffer.contents buf

let write_metrics ~path recorders =
  let csv = Filename.check_suffix path ".csv" in
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc
        (if csv then metrics_csv recorders else metrics_json recorders))
