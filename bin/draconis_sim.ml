(* draconis-sim: command-line front end for the Draconis reproduction.

   Subcommands:
     run        simulate one scheduler under a synthetic workload
     trace      generate a workload trace file or replay one

   The paper's tables and figures, and the sec-7 switch-capacity
   estimates, come from the benchmark harness (bench/main.exe). *)

open Cmdliner
open Draconis_sim
module H = Draconis_harness
module W = Draconis_workload
module Obs = Draconis_obs

(* -- observability options of run -------------------------------------------- *)

let obs_term =
  let trace_out =
    Arg.(
      value & opt (some string) None
      & info [ "trace-out" ] ~docv:"FILE"
          ~doc:
            "Export a Chrome trace-event timeline of the run(s) to $(docv) \
             (load into Perfetto or chrome://tracing).")
  in
  let metrics_out =
    Arg.(
      value & opt (some string) None
      & info [ "metrics-out" ] ~docv:"FILE"
          ~doc:
            "Export per-run counters, gauges, histograms and probe series to \
             $(docv); a .csv extension selects CSV instead of JSON.")
  in
  let probe =
    Arg.(
      value & opt (some int) None
      & info [ "probe-interval-us" ] ~docv:"US"
          ~doc:"Probe sampling period in simulated microseconds (default 100).")
  in
  let max_events =
    Arg.(
      value & opt (some int) None
      & info [ "max-trace-events" ] ~docv:"N"
          ~doc:
            "Per-run event-buffer bound (default 2^20); events past the bound \
             are counted as dropped_events in the metrics export instead of \
             stored.")
  in
  let int_out =
    Arg.(
      value & opt (some string) None
      & info [ "int-out" ] ~docv:"FILE"
          ~doc:
            "Enable in-band telemetry stamping on the switch data path and \
             export a draconis-obs/4 metrics dump (with per-run \"int\" \
             sections) to $(docv); analyze it with $(b,draconis-trace int).")
  in
  let int_budget =
    Arg.(
      value & opt (some int) None
      & info [ "int-budget" ] ~docv:"N"
          ~doc:
            "In-band telemetry header budget, 1..64 stamps per packet \
             (default 4); stamps past the budget are counted as lost, not \
             stored.")
  in
  Term.(
    const (fun trace_out metrics_out int_out int_budget probe_interval_us max_trace_events ->
        { Obs.Export.trace_out; metrics_out; int_out; int_budget; probe_interval_us;
          max_trace_events })
    $ trace_out $ metrics_out $ int_out $ int_budget $ probe $ max_events)

(* -- run ------------------------------------------------------------------- *)

let system_names =
  [ "draconis"; "r2p2-1"; "r2p2-3"; "r2p2-5"; "racksched"; "sparrow"; "sparrow2";
    "dpdk-server"; "socket-server" ]

(* Returns the running handle plus, where the system supports it, the
   fault-injection target for --fault plans (sparrow has no timeout
   path, so no target). *)
let make_system_with_target name (spec : H.Systems.spec) timeout_us =
  let module F = Draconis_fault in
  let timeout = Option.map Time.us timeout_us in
  match name with
  | "draconis" ->
    let cluster, running = H.Systems.draconis_cluster ?client_timeout:timeout spec in
    (running, Some (F.Target.of_cluster ~name:running.H.Systems.name cluster))
  | "r2p2-1" | "r2p2-3" | "r2p2-5" ->
    let k = int_of_string (String.sub name 5 1) in
    let r2p2, running = H.Systems.r2p2_system ~k ?client_timeout:timeout spec in
    (running, Some (F.Target.of_r2p2 ~name:running.H.Systems.name r2p2))
  | "racksched" ->
    let racksched, running = H.Systems.racksched_system ?client_timeout:timeout spec in
    (running, Some (F.Target.of_racksched ~name:running.H.Systems.name racksched))
  | "sparrow" -> (H.Systems.sparrow ~schedulers:1 spec, None)
  | "sparrow2" -> (H.Systems.sparrow ~schedulers:2 spec, None)
  | "dpdk-server" ->
    let server, running =
      H.Systems.central_server_system ?client_timeout:timeout
        Draconis_baselines.Central_server.Dpdk spec
    in
    (running, Some (F.Target.of_central_server ~name:running.H.Systems.name server))
  | "socket-server" ->
    let server, running =
      H.Systems.central_server_system ?client_timeout:timeout
        Draconis_baselines.Central_server.Socket spec
    in
    (running, Some (F.Target.of_central_server ~name:running.H.Systems.name server))
  | other -> invalid_arg ("unknown system: " ^ other)

let make_system name spec timeout_us = fst (make_system_with_target name spec timeout_us)

let run_cmd obs system_name workload_name load_tps utilization workers epw clients
    seed horizon_ms timeout_us fault_spec =
  Obs.Export.with_exports obs @@ fun () ->
  match W.Synthetic.of_name workload_name with
  | None ->
    Printf.eprintf "unknown workload %S; try: %s\n" workload_name
      (String.concat ", " (List.map W.Synthetic.name W.Synthetic.all));
    exit 1
  | Some kind ->
    let spec = { H.Systems.workers; executors_per_worker = epw; clients; seed } in
    let executors = workers * epw in
    let load =
      match (load_tps, utilization) with
      | Some tps, _ -> tps
      | None, u -> u *. H.Exp_common.capacity_tps kind ~executors
    in
    let horizon = Time.ms horizon_ms in
    let module F = Draconis_fault in
    let plan =
      match fault_spec with
      | None -> F.Plan.empty
      | Some spec -> (
        try F.Plan.of_string spec
        with Invalid_argument msg ->
          Printf.eprintf "bad --fault plan: %s\n" msg;
          exit 1)
    in
    let system, target = make_system_with_target system_name spec timeout_us in
    let injector =
      if F.Plan.is_empty plan then None
      else
        match target with
        | None ->
          Printf.eprintf "--fault is not supported for system %S\n" system_name;
          exit 1
        | Some target -> (
          try Some (F.Injector.arm plan target)
          with Invalid_argument msg ->
            Printf.eprintf "bad --fault plan: %s\n" msg;
            exit 1)
    in
    let driver = H.Exp_common.synthetic_driver kind ~rate_tps:load ~horizon in
    let o = H.Runner.run system ~driver ~load_tps:load ~horizon () in
    Format.printf "%a@." H.Runner.pp_outcome o;
    Printf.printf
      "  p50 %.1f us | p99 %.1f us | mean %.1f us | decisions %.0f/s\n"
      (float_of_int o.sched_p50 /. 1e3)
      (float_of_int o.sched_p99 /. 1e3)
      (o.sched_mean /. 1e3) o.decisions_per_sec;
    Printf.printf
      "  submitted %d | started %d | completed %d | timeouts %d | rejected %d\n"
      o.submitted o.started o.completed o.timeouts o.rejected;
    Printf.printf "  recirculation %.3f%% | recirc drops %d | drained %b\n"
      (100.0 *. o.recirc_fraction) o.recirc_drops o.drained;
    match injector with
    | None -> ()
    | Some injector ->
      List.iter
        (fun (at, what) -> Printf.printf "  [%.1f us] %s\n" (Time.to_us at) what)
        (F.Injector.fired injector);
      let report =
        F.Recovery.measure ~metrics:system.H.Systems.metrics ~injector ~until:horizon
          ()
      in
      Format.printf "%a@." F.Recovery.pp report

let run_term =
  let system =
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) system_names)) "draconis"
      & info [ "s"; "system" ] ~docv:"SYSTEM"
          ~doc:"Scheduler to simulate: $(docv) is one of draconis, r2p2-{1,3,5}, \
                racksched, sparrow, sparrow2, dpdk-server, socket-server.")
  in
  let workload =
    Arg.(
      value & opt string "500us"
      & info [ "w"; "workload" ] ~docv:"KIND"
          ~doc:"Synthetic workload: 100us, 250us, 500us, bimodal, trimodal, exp-250us.")
  in
  let load =
    Arg.(
      value & opt (some float) None
      & info [ "load" ] ~docv:"TPS" ~doc:"Offered load in tasks per second.")
  in
  let util =
    Arg.(
      value & opt float 0.5
      & info [ "u"; "utilization" ] ~docv:"FRACTION"
          ~doc:"Offered load as a fraction of cluster capacity (ignored if --load is set).")
  in
  let workers =
    Arg.(value & opt int 10 & info [ "workers" ] ~docv:"N" ~doc:"Worker nodes.")
  in
  let epw =
    Arg.(
      value & opt int 16
      & info [ "executors-per-worker" ] ~docv:"N" ~doc:"Executors per worker node.")
  in
  let clients =
    Arg.(value & opt int 2 & info [ "clients" ] ~docv:"N" ~doc:"Client hosts.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let horizon =
    Arg.(
      value & opt int 200
      & info [ "horizon-ms" ] ~docv:"MS" ~doc:"Submission window, milliseconds.")
  in
  let timeout =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-us" ] ~docv:"US"
          ~doc:"Client per-task timeout in microseconds (enables resubmission).")
  in
  let fault =
    Arg.(
      value & opt (some string) None
      & info [ "fault" ] ~docv:"PLAN"
          ~doc:
            "Deterministic fault plan: ';'-separated timed events, e.g. \
             $(b,failover\\@5ms), $(b,crash\\@2ms:node=3,down=1ms), \
             $(b,burst\\@1ms:dur=500us,loss=0.8), \
             $(b,partition\\@1ms:hosts=0+1,dur=2ms), \
             $(b,straggler\\@1ms:node=2,factor=4,dur=2ms).  Pair with \
             $(b,--timeout-us) so clients recover lost tasks.")
  in
  Term.(
    const run_cmd $ obs_term $ system $ workload $ load $ util $ workers $ epw
    $ clients $ seed $ horizon $ timeout $ fault)

let run_info =
  Cmd.info "run" ~doc:"Simulate one scheduler under a synthetic workload"

(* -- trace ------------------------------------------------------------------ *)

let trace_generate_cmd path mean_us rate horizon_ms seed levels =
  let spec =
    {
      W.Google_trace.default_spec with
      mean_duration = Time.us mean_us;
      rate_tps = rate;
      horizon = Time.ms horizon_ms;
      priority_levels = levels;
    }
  in
  let trace = W.Trace_file.generate (Rng.create ~seed) spec in
  W.Trace_file.save trace ~path;
  Printf.printf "wrote %d tasks in %d jobs to %s\n" (W.Trace_file.task_count trace)
    (List.length trace) path

let trace_replay_cmd path system_name workers epw timeout_us =
  let spec =
    { H.Systems.default_spec with workers; executors_per_worker = epw; clients = 1 }
  in
  let trace = W.Trace_file.load ~path in
  let horizon =
    List.fold_left (fun acc job -> max acc job.W.Trace_file.arrival) 0 trace
  in
  let system = make_system system_name spec timeout_us in
  let driver engine _rng ~submit = W.Trace_file.drive engine trace ~submit in
  let o =
    H.Runner.run system ~driver
      ~load_tps:(float_of_int (W.Trace_file.task_count trace) /. Time.to_s horizon)
      ~horizon ()
  in
  Format.printf "%a@." H.Runner.pp_outcome o

let trace_term =
  let path =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"FILE" ~doc:"Trace file.")
  in
  let action =
    Arg.(
      required
      & pos 0 (some (enum [ ("generate", `Generate); ("replay", `Replay) ])) None
      & info [] ~docv:"ACTION" ~doc:"generate or replay.")
  in
  let mean_us =
    Arg.(value & opt int 500 & info [ "mean-us" ] ~docv:"US" ~doc:"Mean task duration.")
  in
  let rate =
    Arg.(value & opt float 100_000.0 & info [ "rate" ] ~docv:"TPS" ~doc:"Task rate.")
  in
  let horizon =
    Arg.(value & opt int 200 & info [ "horizon-ms" ] ~docv:"MS" ~doc:"Trace length.")
  in
  let seed = Arg.(value & opt int 42 & info [ "seed" ] ~docv:"SEED" ~doc:"RNG seed.") in
  let levels =
    Arg.(value & opt int 0 & info [ "priority-levels" ] ~docv:"N" ~doc:"0 disables.")
  in
  let system =
    Arg.(
      value
      & opt (enum (List.map (fun n -> (n, n)) system_names)) "draconis"
      & info [ "s"; "system" ] ~docv:"SYSTEM" ~doc:"Scheduler for replay.")
  in
  let workers =
    Arg.(value & opt int 10 & info [ "workers" ] ~docv:"N" ~doc:"Worker nodes.")
  in
  let epw =
    Arg.(
      value & opt int 16
      & info [ "executors-per-worker" ] ~docv:"N" ~doc:"Executors per worker.")
  in
  let timeout =
    Arg.(
      value & opt (some int) None
      & info [ "timeout-us" ] ~docv:"US" ~doc:"Client per-task timeout.")
  in
  let run action path mean_us rate horizon seed levels system workers epw timeout =
    match action with
    | `Generate -> trace_generate_cmd path mean_us rate horizon seed levels
    | `Replay -> trace_replay_cmd path system workers epw timeout
  in
  Term.(
    const run $ action $ path $ mean_us $ rate $ horizon $ seed $ levels $ system
    $ workers $ epw $ timeout)

let trace_info =
  Cmd.info "trace" ~doc:"Generate a workload trace file or replay one"

let () =
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info =
    Cmd.info "draconis-sim" ~version:"1.0.0"
      ~doc:"Simulated reproduction of Draconis (EuroSys '24)"
  in
  exit
    (Cmd.eval
       (Cmd.group ~default info
          [
            Cmd.v run_info run_term;
            Cmd.v trace_info trace_term;
          ]))
