open Draconis_sim

type request = {
  trace_out : string option;
  metrics_out : string option;
  int_out : string option;
  int_budget : int option;
  probe_interval_us : int option;
  max_trace_events : int option;
}

let fail fmt = Printf.ksprintf (fun msg -> prerr_endline msg; exit 1) fmt

let at_least_one flag = function
  | Some n when n < 1 -> fail "%s must be >= 1 (got %d)" flag n
  | Some _ | None -> ()

let write_trace runs path =
  Chrome_trace.write ~path runs;
  (* Re-parse the export so a malformed trace fails the invocation
     instead of failing later in Perfetto. *)
  match Json.parse_file path with
  | Error msg -> fail "trace export is not valid JSON: %s" msg
  | Ok _ ->
    let events = List.fold_left (fun acc r -> acc + Recorder.event_count r) 0 runs in
    Printf.printf "wrote %s (%d runs, %d events; re-parsed OK)\n%!" path
      (List.length runs) events

let write_dump ~int runs path =
  Dump.write_metrics ~path runs;
  if int then
    Printf.printf "wrote %s (%d/%d runs carry INT sections)\n%!" path
      (List.length (List.filter (fun r -> Option.is_some (Recorder.int_telemetry r)) runs))
      (List.length runs)
  else Printf.printf "wrote %s\n%!" path

let with_exports r f =
  Option.iter
    (fun n ->
      try Int_telemetry.set_budget n
      with Invalid_argument msg -> fail "--int-budget: %s" msg)
    r.int_budget;
  if Option.is_some r.int_out then Int_telemetry.enable ();
  at_least_one "--probe-interval-us" r.probe_interval_us;
  at_least_one "--max-trace-events" r.max_trace_events;
  let wanted = List.exists Option.is_some [ r.trace_out; r.metrics_out; r.int_out ] in
  if wanted then
    Sink.enable
      ?probe_interval:(Option.map Time.us r.probe_interval_us)
      ?capacity:r.max_trace_events ();
  f ();
  if wanted then begin
    let runs = Sink.drain () in
    Option.iter (write_trace runs) r.trace_out;
    Option.iter (write_dump ~int:false runs) r.metrics_out;
    Option.iter (write_dump ~int:true runs) r.int_out
  end
