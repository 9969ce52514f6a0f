(* Benchmark harness: regenerates every table and figure of the paper's
   evaluation (sec 8) plus micro-benchmarks of the core data structures.

   Usage:
     main.exe                 run everything in paper order
     main.exe fig7 fig8       run selected experiments
     main.exe --quick [...]   smaller grids and horizons
     main.exe --jobs N [...]  worker domains for the experiment grids
                              (default: DRACONIS_JOBS or cores-1)
     main.exe --seed N        workload seed override (default 1000003);
                              the effective seed lands in the --json header
     main.exe --policy P      restrict the pifo experiment to one
                              discipline (edf:<us> | wfq:<us>:<w,..> |
                              aging:<levels>:<us>); unknown or malformed
                              policies abort (also: DRACONIS_POLICY)
     main.exe --json FILE     write machine-readable results (wall time,
                              events/sec, key percentiles) to FILE
     main.exe --csv DIR       also write every table as CSV under DIR
     main.exe --trace-out F   export a Chrome trace-event timeline
                              (load into Perfetto / chrome://tracing)
     main.exe --metrics-out F export per-run counters/gauges/histograms
                              (.csv extension switches to CSV)
     main.exe --int-out F     enable in-band telemetry stamping and write
                              a draconis-obs/4 metrics export (with the
                              per-run "int" sections) to F — feed it to
                              `draconis-trace int`
     main.exe --int-budget N  INT header budget, 1..64 stamps per packet
                              (default 4); malformed values abort
     main.exe --probe-interval-us N
                              probe sampling period (default 100us)
     main.exe --max-trace-events N
                              per-run event-buffer bound (default 2^20);
                              overflow is counted, not stored
     main.exe --list          list experiment names *)

open Bechamel
open Toolkit
module H = Draconis_harness

(* -- Bechamel micro-benchmarks ------------------------------------------- *)

let micro_tests () =
  let open Draconis_sim in
  let open Draconis_proto in
  let int_heap_test =
    Test.make ~name:"int_heap push+pop x100"
      (Staged.stage (fun () ->
           let heap = Int_heap.create () in
           for i = 0 to 99 do
             Int_heap.push heap ((i * 7919) mod 100) i
           done;
           while not (Int_heap.is_empty heap) do
             ignore (Int_heap.pop heap)
           done))
  in
  let engine_test =
    (* The calendar in place, at the standing population idle-poll held
       with one watchdog event per pull request: ~3k self-re-arming
       timers cycling through one poll round trip's delays (request hop,
       admission, reply hop, retry, watchdog), so the 200 us watchdogs
       make up most of what is pending.  (With one deadline per
       executor, an idle cluster holds 2 pending events per executor.)
       Each iteration steps one event, which re-arms itself: one
       schedule and one step on a full calendar, with nothing created in
       the loop. *)
    let engine = Engine.create () in
    let mix = [| 1_350; 400; 1_650; 4_000; 200_000; 1_500; 400; 1_500; 4_000; 200_000 |] in
    let next = ref 0 in
    let rec timer () =
      next := if !next + 1 = Array.length mix then 0 else !next + 1;
      ignore (Engine.schedule engine ~after:mix.(!next) timer)
    in
    for _ = 1 to 3_000 do
      timer ()
    done;
    Engine.run ~max_events:1_000_000 engine;
    Test.make ~name:"engine schedule+step, 3k pending (idle-poll mix)"
      (Staged.stage (fun () -> ignore (Engine.step engine)))
  in
  let rng = Rng.create ~seed:1 in
  let rng_test =
    Test.make ~name:"rng bits64" (Staged.stage (fun () -> ignore (Rng.bits64 rng)))
  in
  let tasks =
    List.init 10 (fun tid ->
        Task.make ~uid:1 ~jid:2 ~tid ~fn_id:Task.Fn.busy_loop ~fn_par:100_000 ())
  in
  let msg =
    Message.Job_submission
      { client = Draconis_net.Addr.Host 11; uid = 1; jid = 2; tasks }
  in
  let codec_test =
    Test.make ~name:"codec encode+decode job(10 tasks)"
      (Staged.stage (fun () ->
           match Codec.decode (Codec.encode msg) with
           | Ok _ -> ()
           | Error _ -> assert false))
  in
  let queue = Draconis.Circular_queue.create ~name:"bench" ~capacity:1024 () in
  let entry =
    Draconis.Entry.make
      ~task:(Task.make ~uid:1 ~jid:1 ~tid:1 ~fn_id:1 ~fn_par:100_000 ())
      ~client:(Draconis_net.Addr.Host 11) ()
  in
  let queue_test =
    Test.make ~name:"circular queue enqueue+dequeue"
      (Staged.stage (fun () ->
           let ctx1 = Draconis_p4.Packet_ctx.create () in
           (match Draconis.Circular_queue.enqueue queue ctx1 entry with
           | Draconis.Circular_queue.Enqueued _ -> ()
           | Draconis.Circular_queue.Rejected _ -> assert false);
           let ctx2 = Draconis_p4.Packet_ctx.create () in
           match Draconis.Circular_queue.dequeue queue ctx2 with
           | Draconis.Circular_queue.Dequeued _ -> ()
           | Draconis.Circular_queue.Empty | Draconis.Circular_queue.Repair_pending ->
             assert false))
  in
  let swap_test =
    let swap_queue = Draconis.Circular_queue.create ~name:"bench-swap" ~capacity:64 () in
    (* Keep two pending tasks so the swap always hits a valid slot. *)
    let seed_ctx = Draconis_p4.Packet_ctx.create () in
    (match Draconis.Circular_queue.enqueue swap_queue seed_ctx entry with
    | Draconis.Circular_queue.Enqueued _ -> ()
    | Draconis.Circular_queue.Rejected _ -> assert false);
    Test.make ~name:"circular queue task swap"
      (Staged.stage (fun () ->
           let ctx = Draconis_p4.Packet_ctx.create () in
           match Draconis.Circular_queue.swap swap_queue ctx ~index:0 entry with
           | Draconis.Circular_queue.Swapped _ -> ()
           | Draconis.Circular_queue.Slot_invalid -> assert false))
  in
  let table_lookup_test =
    let table = Draconis_p4.Table.create ~name:"bench" ~default:(-1) () in
    for i = 0 to 255 do
      Draconis_p4.Table.add_exact table ~key:i i
    done;
    let key = ref 0 in
    Test.make ~name:"match-action table lookup"
      (Staged.stage (fun () ->
           key := (!key + 1) land 255;
           ignore (Draconis_p4.Table.lookup table ~key:!key)))
  in
  let mark_test =
    Test.make ~name:"obs mark (no recorder)"
      (Staged.stage (fun () -> Draconis_obs.Recorder.mark ~at:0 ~track:"host" "x"))
  in
  [ engine_test; int_heap_test; rng_test; codec_test; queue_test;
    swap_test; table_lookup_test; mark_test ]

let run_micro ?quick:_ () =
  print_endline "\n== Micro-benchmarks (core data structures) ==";
  let ols =
    Analyze.ols ~r_square:true ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = Instance.[ monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:2000 ~quota:(Time.second 0.5) ~kde:None
      ~stabilize:true ()
  in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg instances (Test.make_grouped ~name:"g" [ test ]) in
      let analyzed = Analyze.all ols Instance.monotonic_clock results in
      Hashtbl.iter
        (fun name ols_result ->
          let ns =
            match Analyze.OLS.estimates ols_result with
            | Some (x :: _) -> x
            | Some [] | None -> nan
          in
          Printf.printf "%-40s %10.1f ns/op\n%!" name ns)
        analyzed)
    (micro_tests ())

(* -- experiment registry -------------------------------------------------- *)

let experiments : (string * string * (?quick:bool -> unit -> unit)) list =
  [
    ("fig5a", "load vs p99 scheduling delay, all systems, 500us tasks", H.Fig5a.run);
    ("fig5b", "scheduling throughput, no-op workload", H.Fig5b.run);
    ("fig6", "p99 scheduling delay across the synthetic suite", H.Fig6.run);
    ("fig7", "task drops and recirculation, 250us tasks", H.Fig7.run);
    ("fig8", "effect of the JBSQ bound on R2P2", H.Fig8.run);
    ("fig9", "scheduling-delay CDF on the Google trace", H.Fig9.run);
    ("fig10", "locality-aware scheduling vs FCFS", H.Fig10.run);
    ("fig11", "throughput under resource constraints", H.Fig11.run);
    ("fig12", "queueing delay across priority levels", H.Fig12.run);
    ("fig13", "get_task() latency across priority levels", H.Fig13.run);
    ("figf", "fault injection: failover/burst/partition recovery", H.Figf.run);
    ("pifo", "PIFO disciplines (EDF/WFQ/aging) vs circular-queue baselines",
     H.Pifo_exp.run);
    ("int", "in-band telemetry: switch queue depth vs client p99 under load",
     H.Int_exp.run);
    ("resources", "sec 7 switch resource estimates", H.Resource_table.run);
    ("scaling", "sec 8.2 cluster-scale projection", H.Scaling.run);
    ("others", "sec 8 'other schedulers' (Spark native, Firmament)", H.Others.run);
    ("ablations", "design-choice ablations", H.Ablations.run);
    ("engine-bench", "event core: wheel calendar storm, alloc/event", H.Engine_bench.run);
    ("micro", "bechamel micro-benchmarks", run_micro);
  ]

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let quick = List.mem "--quick" args in
  (* Flags taking a value: --csv DIR, --json FILE, --jobs N, ...  A
     value flag with no value (trailing, or straight into another flag)
     fails fast instead of being silently ignored. *)
  let rec value_of flag = function
    | [ f ] when f = flag ->
      Printf.eprintf "%s requires a value\n" flag;
      exit 1
    | f :: v :: _ when f = flag ->
      if String.length v >= 2 && String.sub v 0 2 = "--" then begin
        Printf.eprintf "%s requires a value, got flag %S\n" flag v;
        exit 1
      end;
      Some v
    | _ :: rest -> value_of flag rest
    | [] -> None
  in
  Draconis_stats.Table.set_csv_dir (value_of "--csv" args);
  let json_path = value_of "--json" args in
  let int_flag flag =
    Option.map
      (fun v ->
        match int_of_string_opt v with
        | Some n -> n
        | None ->
          Printf.eprintf "%s wants an integer, got %S\n" flag v;
          exit 1)
      (value_of flag args)
  in
  let exports =
    {
      Draconis_obs.Export.trace_out = value_of "--trace-out" args;
      metrics_out = value_of "--metrics-out" args;
      int_out = value_of "--int-out" args;
      int_budget = int_flag "--int-budget";
      probe_interval_us = int_flag "--probe-interval-us";
      max_trace_events = int_flag "--max-trace-events";
    }
  in
  Draconis_obs.Export.with_exports exports @@ fun () ->
  (match value_of "--jobs" args with
  | None -> ()
  | Some v -> (
    match int_of_string_opt v with
    | Some n when n >= 1 ->
      (* Clamp to the domain cap instead of aborting, so the --json
         header's [jobs] field always records the *effective* worker
         count the sweep actually ran with. *)
      let effective = min n H.Pool.max_jobs in
      if effective < n then
        Printf.eprintf "--jobs %d exceeds the %d-domain cap; running with %d\n%!"
          n H.Pool.max_jobs effective;
      H.Pool.set_jobs effective
    | Some _ | None ->
      Printf.eprintf "--jobs wants a positive integer, got %S\n" v;
      exit 1));
  (match value_of "--policy" args with
  | None -> ()
  | Some v -> (
    (* Fail-loud: an unknown discipline or malformed parameters abort
       the invocation instead of silently falling back to a default. *)
    match H.Pifo_exp.set_policy (Draconis.Policy.of_string v) with
    | () -> ()
    | exception Invalid_argument msg ->
      Printf.eprintf "--policy: %s\n" msg;
      exit 1));
  (match value_of "--seed" args with
  | None -> ()
  | Some v -> (
    match int_of_string_opt v with
    | Some n -> H.Runner.set_workload_seed n
    | None ->
      Printf.eprintf "--seed wants an integer, got %S\n" v;
      exit 1));
  let names =
    let rec drop_flags = function
      | ("--csv" | "--json" | "--jobs" | "--seed" | "--policy"
        | "--trace-out" | "--metrics-out" | "--int-out" | "--int-budget"
        | "--probe-interval-us" | "--max-trace-events")
        :: _ :: rest ->
        drop_flags rest
      | a :: rest when String.length a > 1 && a.[0] = '-' -> drop_flags rest
      | a :: rest -> a :: drop_flags rest
      | [] -> []
    in
    drop_flags args
  in
  if List.mem "--list" args then
    List.iter (fun (name, descr, _) -> Printf.printf "%-10s %s\n" name descr) experiments
  else begin
    let selected =
      if names = [] then experiments
      else
        List.map
          (fun name ->
            match List.find_opt (fun (n, _, _) -> n = name) experiments with
            | Some e -> e
            | None ->
              Printf.eprintf "unknown experiment %S (try --list)\n" name;
              exit 1)
          names
    in
    H.Report.reset ();
    (* stderr so stdout stays byte-identical across --jobs settings. *)
    Printf.eprintf "(running with --jobs %d)\n%!" (H.Pool.jobs ());
    List.iter
      (fun (name, descr, run) ->
        Printf.printf "\n#### %s: %s%s\n%!" name descr (if quick then " [quick]" else "");
        let t0 = Unix.gettimeofday () in
        (run : ?quick:bool -> unit -> unit) ~quick ();
        let wall_s = Unix.gettimeofday () -. t0 in
        H.Report.finish_experiment ~name ~wall_s;
        Printf.printf "(%s took %.1fs)\n%!" name wall_s)
      selected;
    (match json_path with
    | None -> ()
    | Some path ->
      (try
         H.Report.write ~path ~jobs:(H.Pool.jobs ()) ~quick
       with
      | Sys_error msg ->
        Printf.eprintf "cannot write --json report: %s\n" msg;
        exit 1);
      Printf.printf "\nwrote %s\n%!" path)
  end
