(* draconis-trace: offline analysis of exported observability data.

   Subcommands:
     analyze  per-phase latency decomposition of a metrics export
     int      in-band telemetry report (queue depth, recirc chains)
     compare  regression-guard diff of two bench JSON reports *)

open Cmdliner
module Obs = Draconis_obs

(* -- analyze ---------------------------------------------------------------- *)

let analyze_cmd path format =
  match Obs.Analyze.load ~path with
  | Error msg ->
    Printf.eprintf "draconis-trace: %s\n" msg;
    exit 1
  | Ok runs ->
    print_string
      (match format with
      | `Text -> Obs.Analyze.render_text runs
      | `Json -> Obs.Analyze.render_json runs
      | `Csv -> Obs.Analyze.render_csv runs);
    (* Exactness is the analyzer's contract: a run that claims phase
       attribution must decompose to the tick.  Fail loudly if not. *)
    let broken =
      List.filter
        (fun (r : Obs.Analyze.run) ->
          match r.attribution with
          | Some a -> not (a.exact && a.verified)
          | None -> false)
        runs
    in
    if broken <> [] then begin
      List.iter
        (fun (r : Obs.Analyze.run) ->
          Printf.eprintf "draconis-trace: phase sums are not exact for run %S\n" r.label)
        broken;
      exit 1
    end

let analyze_term =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"METRICS" ~doc:"Metrics export (draconis-obs JSON).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("csv", `Csv) ]) `Text
      & info [ "f"; "format" ] ~docv:"FORMAT" ~doc:"Output format: text, json, or csv.")
  in
  Term.(const analyze_cmd $ path $ format)

let analyze_info =
  Cmd.info "analyze"
    ~doc:
      "Per-phase latency decomposition (client/fabric/pipeline/queue/recirc/\
       dispatch/service/reply) of a metrics export, with critical-path, anomaly, \
       and slowest-task breakdowns; exits non-zero if any run's phases fail to \
       sum exactly to its end-to-end delays"

(* -- int -------------------------------------------------------------------- *)

let int_cmd path format top =
  if top < 1 then begin
    Printf.eprintf "--top must be >= 1 (got %d)\n" top;
    exit 1
  end;
  match Obs.Int_report.load ~path with
  | Error msg ->
    Printf.eprintf "draconis-trace: %s\n" msg;
    exit 1
  | Ok runs ->
    print_string
      (match format with
      | `Text -> Obs.Int_report.render_text ~top runs
      | `Json -> Obs.Int_report.render_json runs
      | `Csv -> Obs.Int_report.render_csv runs);
    (* The dump's per-queue totals are redundant with the bucketed
       series on purpose: re-derive them here and fail loudly on any
       mismatch (the offline occupancy re-check). *)
    let broken =
      List.filter
        (fun (r : Obs.Int_report.run) ->
          match r.int_ with
          | Some s -> Obs.Int_report.recheck s <> []
          | None -> false)
        runs
    in
    if broken <> [] then begin
      List.iter
        (fun (r : Obs.Int_report.run) ->
          Printf.eprintf "draconis-trace: occupancy re-check failed for run %S\n"
            r.label)
        broken;
      exit 1
    end

let int_term =
  let path =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"METRICS" ~doc:"Metrics export (draconis-obs/3 or /4 JSON with INT sections).")
  in
  let format =
    Arg.(
      value
      & opt (enum [ ("text", `Text); ("json", `Json); ("csv", `Csv) ]) `Text
      & info [ "f"; "format" ] ~docv:"FORMAT" ~doc:"Output format: text, json, or csv.")
  in
  let top =
    Arg.(
      value & opt int 10
      & info [ "top" ] ~docv:"K" ~doc:"How many recirculation chains to list.")
  in
  Term.(const int_cmd $ path $ format $ top)

let int_info =
  Cmd.info "int"
    ~doc:
      "In-band telemetry report from a metrics export: per-queue depth heatmaps \
       over time, per-stage hop latency, rank-store bank activity, top-K \
       recirculation chains, and stamp-loss accounting; exits non-zero if the \
       offline occupancy re-check finds the depth series inconsistent with the \
       recorded totals"

(* -- compare ---------------------------------------------------------------- *)

let compare_cmd base_path cur_path tol_pct =
  if tol_pct < 0.0 || Float.is_nan tol_pct then begin
    Printf.eprintf "--tol-pct must be >= 0 (got %g)\n" tol_pct;
    exit 1
  end;
  match
    Obs.Bench_compare.compare_files ~tol_pct:(tol_pct /. 100.0) ~base_path ~cur_path ()
  with
  | Error msg ->
    Printf.eprintf "draconis-trace: %s\n" msg;
    exit 1
  | Ok report ->
    print_string (Obs.Bench_compare.render report);
    if not (Obs.Bench_compare.passed report) then exit 1

let compare_term =
  let base =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"BASELINE" ~doc:"Baseline bench report (draconis-bench JSON).")
  in
  let cur =
    Arg.(
      required
      & pos 1 (some file) None
      & info [] ~docv:"CURRENT" ~doc:"Current bench report to check.")
  in
  let tol =
    Arg.(
      value & opt float 10.0
      & info [ "tol-pct" ] ~docv:"PCT"
          ~doc:
            "Relative tolerance in percent applied per field (small absolute \
             floors absorb tick-level noise near zero).")
  in
  Term.(const compare_cmd $ base $ cur $ tol)

let compare_info =
  Cmd.info "compare"
    ~doc:
      "Diff two bench --json reports field by field and exit non-zero on any \
       regression beyond tolerance (missing outcomes and drained flips always \
       fail; event counts and wall time are informational)"

let main =
  Cmd.group
    (Cmd.info "draconis-trace" ~version:"%%VERSION%%"
       ~doc:"Offline analysis of Draconis observability exports")
    [
      Cmd.v analyze_info analyze_term;
      Cmd.v int_info int_term;
      Cmd.v compare_info compare_term;
    ]

let () = exit (Cmd.eval main)
