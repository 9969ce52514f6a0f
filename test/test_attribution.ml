(* Tests for per-task causal phase attribution: on seeded end-to-end
   runs — including recirculation-heavy multi-task jobs, resource-aware
   swaps, and a switch fail-over recovered by client timeouts — every
   completed task's phase buckets must telescope to exactly the
   end-to-end delay the metrics measured.  Also covers the offline
   analyzer round-trip and the bench-report regression guard behind
   draconis-trace. *)

open Draconis_sim
open Draconis_proto
module H = Draconis_harness
module F = Draconis_fault
module Obs = Draconis_obs
module Sampler = Draconis_stats.Sampler

let spec = { H.Systems.workers = 4; executors_per_worker = 4; clients = 2; seed = 11 }

(* Evenly spaced jobs of [tasks_per_job] tasks each; multi-task jobs
   ride the recirculation port for their continuations. *)
let burst_driver ?tprops ~jobs ~tasks_per_job ~gap ~fn_par () :
    H.Runner.driver =
 fun engine _rng ~submit ->
  for i = 0 to jobs - 1 do
    ignore
      (Engine.schedule engine ~after:(i * gap) (fun () ->
           submit
             (List.init tasks_per_job (fun tid ->
                  Task.make ~uid:0 ~jid:0 ~tid ?tprops ~fn_id:Task.Fn.busy_loop
                    ~fn_par ()))))
  done

(* Run [system] with its metrics attributing phases under checking rules
   and return the outcome plus the finished collector.  [~check:true]
   makes every seal raise on any telescoping discrepancy, so the run
   itself is the property test; the postconditions below re-check the
   aggregates. *)
let run_attributed (system : H.Systems.running) ~driver ~horizon =
  Draconis.Metrics.attribute system.metrics (Obs.Trace_ctx.create ~check:true ());
  let outcome = H.Runner.run system ~driver ~load_tps:0.0 ~horizon () in
  (outcome, Option.get (Draconis.Metrics.finish_attribution system.metrics))

(* The collector's totals must be a permutation of the end-to-end
   delays the metrics recorded: same multiset, task by task. *)
let check_totals_match_metrics (system : H.Systems.running) collector =
  let metric = Sampler.sorted (Draconis.Metrics.end_to_end_delay system.metrics) in
  let attributed = Sampler.sorted (Obs.Attribution.total_sampler collector) in
  Alcotest.(check (array int)) "attributed totals = measured end-to-end delays"
    metric attributed;
  Alcotest.(check bool) "exact" true (Obs.Attribution.exact collector);
  (* Aggregate cross-check: per-phase sums telescope globally too. *)
  let phase_total =
    List.fold_left
      (fun acc p -> acc + Obs.Attribution.phase_sum collector p)
      0 Obs.Phase.all
  in
  Alcotest.(check int) "phase sums add to total sum"
    (Obs.Attribution.total_sum collector) phase_total

let test_multi_task_recirculation () =
  let system = H.Systems.draconis spec in
  let driver = burst_driver ~jobs:60 ~tasks_per_job:4 ~gap:(Time.us 40) ~fn_par:(Time.us 80) () in
  let outcome, collector = run_attributed system ~driver ~horizon:(Time.ms 3) in
  Alcotest.(check bool) "drained" true outcome.H.Runner.drained;
  Alcotest.(check int) "all completed" 240 outcome.H.Runner.completed;
  Alcotest.(check bool) "recirculated" true (outcome.H.Runner.recirculations > 0);
  Alcotest.(check int) "sealed = completed" 240 (Obs.Attribution.sealed collector);
  Alcotest.(check int) "no incomplete journeys" 0 (Obs.Attribution.incomplete collector);
  check_totals_match_metrics system collector;
  (* Continuation hops were charged somewhere visible. *)
  Alcotest.(check bool) "recirc phase charged" true
    (Obs.Attribution.phase_sum collector Obs.Phase.Recirc > 0);
  (* The runner surfaced the decomposition on the outcome. *)
  Alcotest.(check bool) "outcome carries phases" true (outcome.H.Runner.phases <> [])

let test_swaps_attributed () =
  (* Half the nodes expose resource 1, half resource 2; tasks demanding
     resource 2 behind resource-1 tasks force swaps (paper sec 5.2). *)
  let system =
    H.Systems.draconis
      ~policy_of:(fun _ -> Draconis.Policy.Resource_aware { max_swaps = 4 })
      ~rsrc_of_node:(fun node -> if node mod 2 = 0 then 1 else 2)
      spec
  in
  let driver engine _rng ~submit =
    for i = 0 to 299 do
      let rsrc = if i mod 2 = 0 then 1 else 2 in
      ignore
        (Engine.schedule engine ~after:(i * Time.us 8) (fun () ->
             submit
               [ Task.make ~uid:0 ~jid:0 ~tid:0 ~tprops:(Task.Resources rsrc)
                   ~fn_id:Task.Fn.busy_loop ~fn_par:(Time.us 200) ();
               ]))
    done
  in
  let outcome, collector = run_attributed system ~driver ~horizon:(Time.ms 6) in
  Alcotest.(check bool) "drained" true outcome.H.Runner.drained;
  Alcotest.(check bool) "swaps happened" true (outcome.H.Runner.swaps > 0);
  Alcotest.(check int) "no incomplete journeys" 0 (Obs.Attribution.incomplete collector);
  check_totals_match_metrics system collector;
  let swapped = List.assoc "swapped" (Obs.Attribution.anomalies collector) in
  Alcotest.(check bool) "swapped tasks tagged" true (swapped > 0)

let test_failover_resubmission_attributed () =
  (* A fail-over loses the queue mid-run; client timeouts resubmit the
     lost tasks.  Journeys restart, so the buckets still telescope to
     the delay measured from the first submission. *)
  let cluster, system =
    H.Systems.draconis_cluster ~client_timeout:(Time.ms 1) spec
  in
  let plan =
    F.Plan.create [ { F.Plan.at = Time.us 300; event = F.Plan.Switch_failover } ]
  in
  let injector =
    F.Injector.arm plan (F.Target.of_cluster ~name:system.H.Systems.name cluster)
  in
  (* A near-simultaneous burst of 500 us tasks: 16 run, the rest sit
     queued when the switch dies at 300 us. *)
  let driver = burst_driver ~jobs:60 ~tasks_per_job:1 ~gap:(Time.us 5) ~fn_par:(Time.us 500) () in
  let outcome, collector = run_attributed system ~driver ~horizon:(Time.ms 8) in
  Alcotest.(check bool) "drained" true outcome.H.Runner.drained;
  Alcotest.(check bool) "fail-over lost queued tasks" true
    (F.Injector.queued_lost injector > 0);
  Alcotest.(check int) "all recovered" 60 outcome.H.Runner.completed;
  Alcotest.(check int) "no incomplete journeys" 0 (Obs.Attribution.incomplete collector);
  check_totals_match_metrics system collector;
  let resubmitted = List.assoc "resubmitted" (Obs.Attribution.anomalies collector) in
  Alcotest.(check bool) "resubmissions tagged" true (resubmitted > 0)

(* The completion forwarded at ~110 us is cut and node 0 stays down
   until 1 ms while the client resubmits at 300, 600 and 900 us: the
   copies start at ~1.0, ~1.1 and ~1.2 ms, and the first completes the
   task at ~1.1 ms.  The resubmitted task keeps its metrics record, but
   its journey is sealed at that completion: the stale copies' later
   starts and finishes must not move the breakdown the collector holds,
   nor count as an open journey. *)
let test_stale_copy_leaves_sealed_journey () =
  let module Cluster = Draconis.Cluster in
  let module Metrics = Draconis.Metrics in
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        workers = 1;
        executors_per_worker = 1;
        clients = 1;
        client_timeout = Some (Time.us 300);
      }
  in
  let m = Cluster.metrics cluster in
  Metrics.attribute m (Obs.Trace_ctx.create ~check:true ());
  Cluster.start cluster;
  ignore
    (F.Injector.arm
       (F.Plan.of_string "partition@50us:hosts=1,dur=150us;crash@150us:node=0,down=850us")
       (F.Target.of_cluster cluster));
  let client = Cluster.client cluster 0 in
  ignore
    (Draconis.Client.submit_job client
       [ Task.make ~uid:0 ~jid:0 ~tid:0 ~fn_id:Task.Fn.busy_loop ~fn_par:(Time.us 100) () ]);
  let rec run_to_completion until =
    Cluster.run cluster ~until;
    if Draconis.Client.completions client = 0 && until < Time.ms 3 then
      run_to_completion (until + Time.us 1)
  in
  run_to_completion (Time.ms 1);
  Alcotest.(check int) "completed" 1 (Draconis.Client.completions client);
  let collector = Option.get (Metrics.attribution m) in
  let breakdowns () =
    List.map
      (fun (b : Obs.Attribution.breakdown) ->
        Array.to_list (Array.append [| b.total; b.sched; b.flags |] b.phases))
      (Obs.Attribution.top collector)
  in
  let sums () =
    Obs.Attribution.total_sum collector
    :: List.map (Obs.Attribution.phase_sum collector) Obs.Phase.all
  in
  let sealed = breakdowns () and sealed_sums = sums () in
  let starts = Metrics.started m in
  Cluster.run cluster ~until:(Time.ms 3);
  Alcotest.(check int) "resubmitted up to the cap" 3 (Draconis.Client.resubmitted client);
  Alcotest.(check bool) "a stale copy started after the seal" true
    (Metrics.started m > starts);
  Alcotest.(check int) "the resubmitted task keeps its record" 1 (Metrics.in_flight m);
  Alcotest.(check (list (list int))) "sealed breakdown unchanged" sealed (breakdowns ());
  Alcotest.(check (list int)) "attribution totals unchanged" sealed_sums (sums ());
  let collector = Option.get (Metrics.finish_attribution m) in
  Alcotest.(check int) "sealed once" 1 (Obs.Attribution.sealed collector);
  Alcotest.(check int) "no open journey" 0 (Obs.Attribution.incomplete collector);
  Alcotest.(check int) "tagged resubmitted" 1
    (List.assoc "resubmitted" (Obs.Attribution.anomalies collector))

(* -- offline analyzer round-trip -------------------------------------------- *)

let with_temp_file contents f =
  let path = Filename.temp_file "draconis_test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let oc = open_out path in
      output_string oc contents;
      close_out oc;
      f path)

let test_analyzer_round_trip () =
  (* Under an enabled sink the runner installs the context itself; the
     metrics dump then carries the attribution, and the analyzer must
     re-verify exactness offline from the JSON alone. *)
  Obs.Sink.enable ();
  let dump =
    Fun.protect
      ~finally:(fun () -> Obs.Sink.disable ())
      (fun () ->
        let system = H.Systems.draconis spec in
        let driver =
          burst_driver ~jobs:40 ~tasks_per_job:2 ~gap:(Time.us 50) ~fn_par:(Time.us 100) ()
        in
        let outcome = H.Runner.run system ~driver ~load_tps:0.0 ~horizon:(Time.ms 3) () in
        Alcotest.(check bool) "drained" true outcome.H.Runner.drained;
        Obs.Dump.metrics_json (Obs.Sink.drain ()))
  in
  with_temp_file dump (fun path ->
      match Obs.Analyze.load ~path with
      | Error msg -> Alcotest.failf "analyzer rejected its own dump: %s" msg
      | Ok [ run ] -> (
        match run.Obs.Analyze.attribution with
        | None -> Alcotest.fail "attribution missing from dump"
        | Some a ->
          Alcotest.(check int) "tasks" 80 a.Obs.Analyze.tasks;
          Alcotest.(check bool) "writer claim" true a.Obs.Analyze.exact;
          Alcotest.(check bool) "offline re-check" true a.Obs.Analyze.verified;
          let table_total =
            List.fold_left (fun acc r -> acc + r.Obs.Analyze.sum_ns) 0 a.Obs.Analyze.phases
          in
          Alcotest.(check int) "phase rows sum to total" a.Obs.Analyze.total_sum_ns
            table_total)
      | Ok runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs))

(* -- bench-report regression guard ------------------------------------------ *)

let report ~p99 ~drained ~extra_outcome =
  Printf.sprintf
    {|{
  "schema": "draconis-bench/1",
  "jobs": 1,
  "quick": true,
  "total_wall_s": 0.1,
  "total_events": 1000,
  "experiments": [
    {"name":"fig5a","wall_s":0.1,"events":1000,"events_per_sec":10000,
     "outcomes":[
       {"system":"Draconis","load_tps":96000,"sched_p50_ns":4600,"sched_p99_ns":%d,
        "sched_mean_ns":4590.5,"decisions_per_sec":95000,"submitted":5000,
        "completed":5000,"timeouts":0,"rejected":0,"recirc_fraction":0.005,
        "recirc_drops":0,"swaps":0,"recirculations":4400,"repair_flags":4400,
        "events":400000,"drained":%b,
        "phases":{"queue":{"p50_ns":1000,"p99_ns":1800}}}%s
     ]}
  ]
}|}
    p99 drained
    (if extra_outcome then
       {|,
       {"system":"R2P2","load_tps":96000,"sched_p50_ns":9000,"sched_p99_ns":12000,
        "sched_mean_ns":9100.0,"decisions_per_sec":94000,"submitted":5000,
        "completed":5000,"timeouts":0,"rejected":0,"recirc_fraction":0.0,
        "recirc_drops":0,"swaps":0,"recirculations":0,"repair_flags":0,
        "events":300000,"drained":true}|}
     else "")

let compare_reports ?tol_pct base cur =
  with_temp_file base (fun base_path ->
      with_temp_file cur (fun cur_path ->
          match Obs.Bench_compare.compare_files ?tol_pct ~base_path ~cur_path () with
          | Error msg -> Alcotest.failf "compare failed to load: %s" msg
          | Ok t -> t))

let test_compare_self_passes () =
  let r = report ~p99:5400 ~drained:true ~extra_outcome:true in
  let t = compare_reports r r in
  Alcotest.(check bool) "identical reports pass" true (Obs.Bench_compare.passed t);
  Alcotest.(check bool) "verdict rendered" true
    (Astring.String.is_infix ~affix:"PASS: no regressions" (Obs.Bench_compare.render t))

let test_compare_within_tolerance () =
  (* +2% on a percentile and a delta under the count floor: both pass. *)
  let base = report ~p99:5400 ~drained:true ~extra_outcome:false in
  let cur = report ~p99:5508 ~drained:true ~extra_outcome:false in
  Alcotest.(check bool) "2% drift tolerated" true
    (Obs.Bench_compare.passed (compare_reports base cur))

let test_compare_catches_regression () =
  let base = report ~p99:5400 ~drained:true ~extra_outcome:false in
  let cur = report ~p99:8100 ~drained:true ~extra_outcome:false in
  let t = compare_reports base cur in
  Alcotest.(check bool) "50% regression fails" false (Obs.Bench_compare.passed t);
  let rendered = Obs.Bench_compare.render t in
  (* Golden failure line: field, both values, and the allowed band. *)
  Alcotest.(check bool) "failure names the field" true
    (Astring.String.is_infix
       ~affix:"FAIL fig5a/Draconis@96000 sched_p99_ns: base 5400, current 8100" rendered);
  (* Tightening the tolerance cannot turn a failure into a pass. *)
  Alcotest.(check bool) "still fails at 1%" false
    (Obs.Bench_compare.passed (compare_reports ~tol_pct:0.01 base cur))

let test_compare_drained_flip_fails () =
  let base = report ~p99:5400 ~drained:true ~extra_outcome:false in
  let cur = report ~p99:5400 ~drained:false ~extra_outcome:false in
  let t = compare_reports base cur in
  Alcotest.(check bool) "drained flip fails" false (Obs.Bench_compare.passed t);
  Alcotest.(check bool) "failure names drained" true
    (Astring.String.is_infix ~affix:"drained: base true, current false"
       (Obs.Bench_compare.render t))

let test_compare_missing_and_extra_outcomes () =
  let full = report ~p99:5400 ~drained:true ~extra_outcome:true in
  let partial = report ~p99:5400 ~drained:true ~extra_outcome:false in
  (* Baseline outcome gone from current: a failure. *)
  let t = compare_reports full partial in
  Alcotest.(check bool) "missing outcome fails" false (Obs.Bench_compare.passed t);
  Alcotest.(check (list string)) "missing key listed" [ "fig5a/R2P2@96000" ]
    t.Obs.Bench_compare.missing;
  (* Current-only outcome: informational, not a failure. *)
  let t = compare_reports partial full in
  Alcotest.(check bool) "extra outcome passes" true (Obs.Bench_compare.passed t);
  Alcotest.(check (list string)) "extra key noted" [ "fig5a/R2P2@96000" ]
    t.Obs.Bench_compare.extra

(* figf-shaped: one system@load key per fault plan, in plan order. *)
let repeated_key_report p99s =
  Printf.sprintf
    {|{"schema":"draconis-bench/1","jobs":1,"quick":true,"experiments":[
  {"name":"figf","outcomes":[%s]}]}|}
    (String.concat ","
       (List.map
          (fun p99 ->
            Printf.sprintf
              {|{"system":"Draconis","load_tps":256000,"sched_p99_ns":%d,"completed":2603,"drained":true}|}
              p99)
          p99s))

let test_compare_repeated_keys () =
  let base = repeated_key_report [ 10_300; 1_166_900 ] in
  Alcotest.(check bool) "self-compare passes" true
    (Obs.Bench_compare.passed (compare_reports base base));
  let t = compare_reports base (repeated_key_report [ 10_300; 2_000_000 ]) in
  Alcotest.(check bool) "a change in the second occurrence fails" false
    (Obs.Bench_compare.passed t);
  Alcotest.(check bool) "failure names the second occurrence" true
    (Astring.String.is_infix
       ~affix:"FAIL figf/Draconis@256000#2 sched_p99_ns: base 1166900, current 2000000"
       (Obs.Bench_compare.render t));
  let t = compare_reports base (repeated_key_report [ 10_300 ]) in
  Alcotest.(check (list string)) "a dropped repeat is missing" [ "figf/Draconis@256000#2" ]
    t.Obs.Bench_compare.missing

(* The analyzer reads every metrics-dump schema the writer has used,
   the current /4 included, and nothing else. *)
let test_analyzer_schemas () =
  let loads schema =
    with_temp_file (Printf.sprintf {|{"schema":"%s","runs":[]}|} schema) (fun path ->
        Result.is_ok (Obs.Analyze.load ~path))
  in
  List.iter
    (fun v ->
      Alcotest.(check bool) ("reads draconis-obs/" ^ v) true (loads ("draconis-obs/" ^ v)))
    [ "1"; "2"; "3"; "4" ];
  Alcotest.(check bool) "rejects draconis-obs/5" false (loads "draconis-obs/5");
  Alcotest.(check bool) "rejects a bench report" false (loads "draconis-bench/1")

let test_compare_rejects_wrong_schema () =
  with_temp_file {|{"schema":"draconis-obs/2","runs":[]}|} (fun path ->
      match Obs.Bench_compare.compare_files ~base_path:path ~cur_path:path () with
      | Ok _ -> Alcotest.fail "accepted a metrics dump as a bench report"
      | Error msg ->
        Alcotest.(check bool) "error names the schema" true
          (Astring.String.is_infix ~affix:"draconis-obs/2" msg))

let test_phase_check_env_fails_loudly () =
  (* DRACONIS_PHASE_CHECK takes explicit booleans only: junk must raise
     rather than silently arming (or disarming) the exact-sum check. *)
  let with_env v f =
    Unix.putenv "DRACONIS_PHASE_CHECK" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "DRACONIS_PHASE_CHECK" "") f
  in
  with_env "ture" (fun () ->
      (try
         ignore (Obs.Trace_ctx.create ());
         Alcotest.fail "junk DRACONIS_PHASE_CHECK accepted"
       with Invalid_argument _ -> ());
      (* An explicit [check] never consults the environment. *)
      ignore (Obs.Trace_ctx.create ~check:true ()));
  with_env "1" (fun () -> ignore (Obs.Trace_ctx.create ()));
  with_env "0" (fun () -> ignore (Obs.Trace_ctx.create ()))

let suite =
  [
    Alcotest.test_case "multi-task recirculation sums exactly" `Quick
      test_multi_task_recirculation;
    Alcotest.test_case "DRACONIS_PHASE_CHECK fails loudly" `Quick
      test_phase_check_env_fails_loudly;
    Alcotest.test_case "swaps attributed and exact" `Quick test_swaps_attributed;
    Alcotest.test_case "fail-over resubmission sums exactly" `Quick
      test_failover_resubmission_attributed;
    Alcotest.test_case "analyzer round-trip re-verifies" `Quick test_analyzer_round_trip;
    Alcotest.test_case "analyzer reads obs schemas /1 to /4" `Quick test_analyzer_schemas;
    Alcotest.test_case "stale copy leaves the sealed journey" `Quick
      test_stale_copy_leaves_sealed_journey;
    Alcotest.test_case "compare: identical reports pass" `Quick test_compare_self_passes;
    Alcotest.test_case "compare: drift within tolerance" `Quick
      test_compare_within_tolerance;
    Alcotest.test_case "compare: regression fails" `Quick test_compare_catches_regression;
    Alcotest.test_case "compare: drained flip fails" `Quick test_compare_drained_flip_fails;
    Alcotest.test_case "compare: missing vs extra outcomes" `Quick
      test_compare_missing_and_extra_outcomes;
    Alcotest.test_case "compare: wrong schema rejected" `Quick
      test_compare_rejects_wrong_schema;
    Alcotest.test_case "compare: repeated keys pair by occurrence" `Quick
      test_compare_repeated_keys;
  ]
