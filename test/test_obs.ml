(* Tests for the observability subsystem: the JSON validator, the typed
   recorder and registry, Chrome trace-export round-trips, identities
   between the counters different components keep on real runs (one
   engine, two shards, a fail-over), probe time series, and determinism
   under the domain pool, sharded runs included. *)

open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis
open Draconis_workload
module H = Draconis_harness
module Obs = Draconis_obs
module F = Draconis_fault

(* -- JSON reader ----------------------------------------------------------- *)

let test_json_values () =
  match Obs.Json.parse {| {"a":[1,-2.5,3e2],"s":"x\nA","b":[true,false,null]} |} with
  | Error msg -> Alcotest.failf "parse failed: %s" msg
  | Ok json ->
    (match Obs.Json.member "a" json with
    | Some (Obs.Json.List [ Number a; Number b; Number c ]) ->
      Alcotest.(check (float 1e-9)) "1" 1.0 a;
      Alcotest.(check (float 1e-9)) "-2.5" (-2.5) b;
      Alcotest.(check (float 1e-9)) "3e2" 300.0 c
    | _ -> Alcotest.fail "number array shape");
    (match Obs.Json.member "s" json with
    | Some (Obs.Json.String s) -> Alcotest.(check string) "escapes" "x\nA" s
    | _ -> Alcotest.fail "string member");
    (match Obs.Json.member "b" json with
    | Some (Obs.Json.List [ Bool true; Bool false; Null ]) -> ()
    | _ -> Alcotest.fail "bool/null array shape")

let test_json_rejects_garbage () =
  List.iter
    (fun input ->
      match Obs.Json.parse input with
      | Ok _ -> Alcotest.failf "accepted %S" input
      | Error _ -> ())
    [ ""; "{"; "[1,]"; "{\"a\":}"; "\"unterminated"; "{\"a\":1}x"; "nul" ]

(* -- recorder and registry -------------------------------------------------- *)

let test_recorder_registry () =
  let r = Obs.Recorder.create ~label:"t" () in
  Obs.Recorder.add r "c" 2;
  Obs.Recorder.add r "c" 3;
  Obs.Recorder.set_gauge r "g" 7;
  Obs.Recorder.observe r "h" 10;
  Obs.Recorder.observe r "h" 30;
  Alcotest.(check int) "counter" 5 (Obs.Recorder.counter_value r "c");
  Alcotest.(check int) "missing counter" 0 (Obs.Recorder.counter_value r "nope");
  Alcotest.(check (list (pair string int))) "counters" [ ("c", 5) ]
    (Obs.Recorder.counters r);
  Alcotest.(check (list (pair string int))) "gauges" [ ("g", 7) ] (Obs.Recorder.gauges r);
  match Obs.Recorder.histograms r with
  | [ ("h", s) ] -> Alcotest.(check int) "histogram count" 2 (Draconis_stats.Sampler.count s)
  | _ -> Alcotest.fail "histogram listing"

let test_recorder_capacity () =
  let r = Obs.Recorder.create ~capacity:4 ~label:"t" () in
  for i = 1 to 10 do
    Obs.Recorder.instant r ~at:i ~track:"x" "e"
  done;
  Alcotest.(check int) "kept prefix" 4 (Obs.Recorder.event_count r);
  Alcotest.(check int) "dropped rest" 6 (Obs.Recorder.dropped r);
  match Obs.Recorder.events r with
  | { Obs.Event.at = 1; _ } :: _ -> ()
  | _ -> Alcotest.fail "oldest event must survive (drop-newest)"

let test_ambient_noop_when_uninstalled () =
  Alcotest.(check bool) "inactive" false (Obs.Recorder.active ());
  (* Must not raise or record anywhere. *)
  Obs.Recorder.record "h" 1;
  Obs.Recorder.mark ~at:0 ~track:"t" "e";
  let r = Obs.Recorder.create ~label:"t" () in
  Obs.Recorder.with_recorder r (fun () ->
      Obs.Recorder.record "h" 1;
      Obs.Recorder.mark ~at:0 ~track:"t" "e");
  Alcotest.(check bool) "restored" false (Obs.Recorder.active ());
  Alcotest.(check int) "only the installed mark stored" 1 (Obs.Recorder.event_count r);
  match Obs.Recorder.histograms r with
  | [ ("h", s) ] ->
    Alcotest.(check int) "only the installed sample recorded" 1
      (Draconis_stats.Sampler.count s)
  | _ -> Alcotest.fail "histogram listing"

(* -- chrome trace round-trip on a real cluster run -------------------------- *)

(* A bare cluster run under [recorder]: marks and spans reach it; the
   counters stay with the components (no runner writes them). *)
let small_cluster_run recorder =
  Obs.Recorder.with_recorder recorder (fun () ->
      let cluster =
        Cluster.create
          {
            Cluster.default_config with
            workers = 2;
            executors_per_worker = 2;
            clients = 1;
            queue_capacity = 64;
          }
      in
      Cluster.start cluster;
      for jid = 0 to 19 do
        ignore jid;
        ignore
          (Client.submit_job (Cluster.client cluster 0)
             [ Task.make ~uid:0 ~jid:0 ~tid:0 ~fn_id:Task.Fn.busy_loop
                 ~fn_par:(Time.us 50) ();
             ])
      done;
      ignore (Cluster.run_until_drained cluster ~deadline:(Time.s 1));
      cluster)

let test_chrome_trace_round_trip () =
  let recorder = Obs.Recorder.create ~label:"unit" () in
  let cluster = small_cluster_run recorder in
  Alcotest.(check bool) "events recorded" true (Obs.Recorder.event_count recorder > 0);
  let out = Obs.Chrome_trace.to_string [ recorder ] in
  match Obs.Json.parse out with
  | Error msg -> Alcotest.failf "export is not valid JSON: %s" msg
  | Ok json ->
    let events =
      match Obs.Json.member "traceEvents" json with
      | Some l -> Option.get (Obs.Json.to_list l)
      | None -> Alcotest.fail "no traceEvents"
    in
    Alcotest.(check bool) "non-empty" true (events <> []);
    (* Timestamps non-decreasing per (pid, tid) track. *)
    let last : (float * float, float) Hashtbl.t = Hashtbl.create 16 in
    let names = Hashtbl.create 16 in
    List.iter
      (fun e ->
        let field name = Obs.Json.member name e in
        (match field "name" with
        | Some (Obs.Json.String n) -> Hashtbl.replace names n ()
        | _ -> ());
        match (field "ph", field "pid", field "tid", field "ts") with
        | Some (Obs.Json.String "M"), _, _, _ -> ()
        | _, Some pid, Some tid, Some ts ->
          let pid = Option.get (Obs.Json.to_number pid) in
          let tid = Option.get (Obs.Json.to_number tid) in
          let ts = Option.get (Obs.Json.to_number ts) in
          (match Hashtbl.find_opt last (pid, tid) with
          | Some prev when ts < prev ->
            Alcotest.failf "ts regressed on track (%g,%g): %g < %g" pid tid ts prev
          | _ -> ());
          Hashtbl.replace last (pid, tid) ts
        | _ -> Alcotest.fail "event missing pid/tid/ts")
      events;
    (* Executor spans land on the timeline; the counters stay with their
       components, and nothing writes them into this recorder. *)
    if not (Hashtbl.mem names "task") then Alcotest.fail "no executor task span";
    Alcotest.(check (list (pair string int))) "no counters" []
      (Obs.Recorder.counters recorder);
    let program = Cluster.program cluster in
    Alcotest.(check int) "20 tasks submitted" 20
      (Client.tasks_submitted (Cluster.client cluster 0));
    Alcotest.(check int) "each assigned once" 20 (Switch_program.assignments program);
    Alcotest.(check bool) "traffic counted" true
      (Fabric.sent (Cluster.fabric cluster) > 0
      && Draconis_p4.Pipeline.processed (Cluster.pipeline cluster) > 0)

(* -- counters checked against each other ------------------------------------ *)

let small_spec =
  { H.Systems.workers = 4; executors_per_worker = 4; clients = 1; seed = 7 }

let horizon = Time.ms 10

let run_at system ~load =
  H.Runner.run system
    ~driver:(H.Exp_common.synthetic_driver Synthetic.Fixed_100us ~rate_tps:load ~horizon)
    ~load_tps:load ~horizon ()

let sweep_once ~loads () =
  List.map (fun load -> run_at (H.Systems.draconis small_spec) ~load) loads

(* [observe f] runs [f] with the sink enabled: [f]'s value and the
   recorders its runs put. *)
let observe f =
  Obs.Sink.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.Sink.disable ())
    (fun () ->
      let v = f () in
      (v, Obs.Sink.drain ()))

let with_jobs n f =
  let previous = H.Pool.jobs () in
  H.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> H.Pool.set_jobs previous) f

let recorder_of recorders (o : H.Runner.outcome) =
  let label = Printf.sprintf "%s@%.0ftps" o.system o.load_tps in
  match List.filter (fun r -> Obs.Recorder.label r = label) recorders with
  | [ r ] -> r
  | _ -> Alcotest.failf "expected one recorder labelled %s" label

(* Identities between different components' counters of a lossless run:
   every rejected task went back to its client in a Queue_full message.
   [all_done]: no fault, drained — every submitted task was assigned,
   executed and completed exactly once. *)
let check_identities ?(all_done = true) r (o : H.Runner.outcome) =
  let c = Obs.Recorder.counter_value r in
  let check what a b = Alcotest.(check int) (Obs.Recorder.label r ^ ": " ^ what) a b in
  check "client.completed = outcome" o.completed (c "client.completed");
  check "switch.rejected_tasks = outcome" o.rejected (c "switch.rejected_tasks");
  check "switch.recirculations = outcome" o.recirculations (c "switch.recirculations");
  check "switch.repairs_launched = outcome" o.repair_flags (c "switch.repairs_launched");
  Alcotest.(check bool)
    (Obs.Recorder.label r ^ ": one name for the repair count")
    false
    (List.mem_assoc "queue.repair_flags" (Obs.Recorder.counters r));
  check "pipeline.recirc_dropped = outcome" o.recirc_drops (c "pipeline.recirc_dropped");
  (* Every Recirculate output is accepted or dropped by the port. *)
  check "switch.recirculations = recirculated + recirc_dropped"
    (c "switch.recirculations")
    (c "pipeline.recirculated" + c "pipeline.recirc_dropped");
  if all_done then begin
    check "switch.assignments = exec.tasks" (c "switch.assignments") (c "exec.tasks");
    check "exec.tasks = client.completed" (c "exec.tasks") (c "client.completed");
    check "client.completed = client.submitted" (c "client.completed")
      (c "client.submitted")
  end;
  check "switch.rejected_tasks = client.queue_full_bounces" (c "switch.rejected_tasks")
    (c "client.queue_full_bounces")

(* Three fault-free runs: plain FCFS; a 16-slot queue past capacity
   (rejections, bounces, repairs); two priority levels on a slow
   loop-back port, where idle requests scan the levels by recirculation
   and some scans drop at the port (the executor's watchdog re-sends). *)
let identity_runs ?shards () =
  [
    run_at (H.Systems.draconis ?shards small_spec) ~load:100_000.0;
    run_at (H.Systems.draconis ?shards ~queue_capacity:16 small_spec) ~load:180_000.0;
    run_at
      (H.Systems.draconis ?shards
         ~policy_of:(fun _ -> Policy.Priority { levels = 2 })
         ~pipeline_config:
           {
             Draconis_p4.Pipeline.default_config with
             recirc_slot = Time.ns 300;
             recirc_queue_limit = 4;
           }
         small_spec)
      ~load:60_000.0;
  ]

let check_identity_runs (outcomes, recorders) =
  List.iter
    (fun (o : H.Runner.outcome) ->
      Alcotest.(check bool) (o.system ^ " drained") true o.drained;
      check_identities (recorder_of recorders o) o)
    outcomes;
  let total name =
    List.fold_left (fun acc r -> acc + Obs.Recorder.counter_value r name) 0 recorders
  in
  Alcotest.(check bool) "tasks bounced" true (total "client.queue_full_bounces" > 0);
  Alcotest.(check bool) "repairs launched" true (total "switch.repairs_launched" > 0);
  Alcotest.(check bool) "recirculations dropped" true (total "pipeline.recirc_dropped" > 0)

let test_identities_one_engine () =
  let ((outcomes, recorders) as runs) = observe (fun () -> identity_runs ()) in
  check_identity_runs runs;
  let r = recorder_of recorders (List.hd outcomes) in
  (* Probes sampled the queue and executors over the whole run. *)
  let series = Obs.Recorder.series r in
  Alcotest.(check bool) "occupancy series present" true
    (List.mem_assoc "queue.occupancy" series);
  (match List.assoc_opt "executors.busy" series with
  | Some ((_ :: _ :: _) as points) ->
    let rec chrono = function
      | (a, _) :: ((b, _) :: _ as rest) -> a <= b && chrono rest
      | _ -> true
    in
    Alcotest.(check bool) "series chronological" true (chrono points)
  | _ -> Alcotest.fail "executors.busy series too short");
  (* The metrics dump over this run must itself re-parse. *)
  match Obs.Json.parse (Obs.Dump.metrics_json [ r ]) with
  | Ok _ -> ()
  | Error msg -> Alcotest.failf "metrics dump invalid: %s" msg

let test_identities_two_shards () =
  check_identity_runs (with_jobs 2 (fun () -> observe (fun () -> identity_runs ~shards:2 ())))

(* A fail-over mid-run: the standby carries on the dead program's
   counts.  Counts restarted at the fail-over would miss the dead
   program's share and break the pipeline and client identities. *)
let test_identities_across_failover () =
  let cluster, system =
    H.Systems.draconis_cluster ~queue_capacity:16 ~client_timeout:(Time.ms 1) small_spec
  in
  let dead = Cluster.program cluster in
  ignore
    (F.Injector.arm
       (F.Plan.create [ { F.Plan.at = Time.ms 5; event = F.Plan.Switch_failover } ])
       (F.Target.of_cluster cluster));
  let o, recorders = observe (fun () -> run_at system ~load:180_000.0) in
  let r = recorder_of recorders o in
  let live = Cluster.program cluster in
  let counts p = Switch_program.[ rejected_tasks p; repairs_launched p; recirculations p ] in
  Alcotest.(check bool) "the standby took over" true (live != dead);
  Alcotest.(check bool) "the dead program rejected, repaired and recirculated" true
    (List.for_all (fun n -> n > 0) (counts dead));
  check_identities ~all_done:false r o;
  Alcotest.(check (list int)) "the outcome counts for the deployment"
    [ o.rejected; o.repair_flags; o.recirculations ]
    (counts live);
  List.iter2
    (fun before after -> Alcotest.(check bool) "the standby counted on" true (after > before))
    (counts dead) (counts live)

(* The counter names no figure sweep reaches: a message to a host with
   no handler, and PIFO stamp renumbers, forced by starting the stamp
   counter just short of its renumber threshold. *)
let test_rare_counters () =
  let capacity = 32 in
  let cluster, system =
    H.Systems.draconis_cluster
      ~policy_of:(fun _ -> Policy.Edf { default_deadline = Time.us 500 })
      ~queue_capacity:capacity small_spec
  in
  let pifo = Option.get (Switch_program.pifo (Cluster.program cluster)) in
  let seq =
    List.find
      (fun r -> Draconis_p4.Register.name r = "pifo.seq")
      (Draconis_pifo.Pifo.registers pifo)
  in
  Draconis_p4.Register.poke seq 0 (Draconis_pifo.Pifo.seq_limit - (2 * capacity) - 8);
  let load = 60_000.0 in
  let workload = H.Exp_common.synthetic_driver Synthetic.Fixed_100us ~rate_tps:load ~horizon in
  let driver engine rng ~submit =
    ignore
      (Engine.schedule engine ~after:(Time.ms 1) (fun () ->
           Fabric.send (Cluster.fabric cluster) ~src:(Addr.Host 0) ~dst:(Addr.Host 99)
             (Message.Job_ack { uid = 0; jid = 0 })));
    workload engine rng ~submit
  in
  let o, recorders =
    observe (fun () -> H.Runner.run system ~driver ~load_tps:load ~horizon ())
  in
  let r = recorder_of recorders o in
  check_identities r o;
  let c = Obs.Recorder.counter_value r in
  Alcotest.(check int) "fabric.undeliverable" 1 (c "fabric.undeliverable");
  let renumbers = Switch_program.renumbers (Cluster.program cluster) in
  Alcotest.(check bool) "the rank store renumbered" true (renumbers > 0);
  Alcotest.(check int) "pifo.renumbers" renumbers (c "pifo.renumbers");
  ignore (Cluster.fail_over_switch cluster);
  Alcotest.(check int) "the standby carries the renumbers" renumbers
    (Switch_program.renumbers (Cluster.program cluster))

(* -- determinism under the domain pool -------------------------------------- *)

let pooled_sweep () =
  Obs.Sink.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.Sink.disable ())
    (fun () ->
      let loads = [ 20_000.0; 30_000.0; 40_000.0 ] in
      ignore
        (H.Pool.map ~jobs:2
           (List.map (fun load () -> List.hd (sweep_once ~loads:[ load ] ())) loads));
      Obs.Sink.drain ()
        |> List.map (fun r ->
               ( Obs.Recorder.label r,
                 Obs.Recorder.event_count r,
                 Obs.Recorder.counters r,
                 Obs.Recorder.events r )))

(* An observed sharded run keeps its windows on the caller's domain, so
   the recorder gets every LP's marks, spans and samples in one order:
   two runs at 2 shards on a 2-lane pool dump the same bytes and the
   same events, and their counters equal those at 1 shard. *)
let sharded_observed shards =
  with_jobs 2 (fun () ->
      match observe (fun () -> run_at (H.Systems.draconis ~shards small_spec) ~load:100_000.0) with
      | _, [ r ] -> r
      | _, runs -> Alcotest.failf "expected 1 recorder, got %d" (List.length runs))

let test_sharded_observed_determinism () =
  let a = sharded_observed 2 in
  let b = sharded_observed 2 in
  Alcotest.(check bool) "spans recorded" true (Obs.Recorder.event_count a > 0);
  Alcotest.(check string) "same dump" (Obs.Dump.metrics_json [ a ]) (Obs.Dump.metrics_json [ b ]);
  if Obs.Recorder.events a <> Obs.Recorder.events b then Alcotest.fail "event lists differ";
  Alcotest.(check (list (pair string int))) "1 shard counts the same"
    (Obs.Recorder.counters (sharded_observed 1))
    (Obs.Recorder.counters a)

let test_pool_determinism () =
  let a = pooled_sweep () in
  let b = pooled_sweep () in
  Alcotest.(check int) "3 runs" 3 (List.length a);
  List.iter2
    (fun (la, ea, ca, eva) (lb, eb, cb, evb) ->
      Alcotest.(check string) "label" la lb;
      Alcotest.(check int) "event count" ea eb;
      Alcotest.(check (list (pair string int))) "counters" ca cb;
      if eva <> evb then Alcotest.failf "event streams differ for %s" la)
    a b

(* -- probes ----------------------------------------------------------------- *)

let test_probe_sampling () =
  let engine = Engine.create () in
  let state = ref 0 in
  ignore (Engine.schedule engine ~after:(Time.us 150) (fun () -> state := 5));
  let r = Obs.Recorder.create ~label:"probe" () in
  Obs.Recorder.with_recorder r (fun () ->
      Obs.Probe.attach engine ~interval:(Time.us 100) ~until:(Time.us 450)
        [ ("s", fun () -> !state) ];
      Engine.run ~until:(Time.ms 1) engine);
  match Obs.Recorder.series r with
  | [ ("s", points) ] ->
    (* Immediate sample at t=0 plus every 100us through 400us. *)
    Alcotest.(check int) "5 samples" 5 (List.length points);
    Alcotest.(check (list (pair int int))) "values track state"
      [ (0, 0); (Time.us 100, 0); (Time.us 200, 5); (Time.us 300, 5); (Time.us 400, 5) ]
      points
  | _ -> Alcotest.fail "expected one series"

let test_probe_rejects_bad_interval () =
  let engine = Engine.create () in
  Alcotest.check_raises "zero interval"
    (Invalid_argument "Probe.attach: interval must be positive") (fun () ->
      Obs.Probe.attach engine ~interval:0 ~until:(Time.us 10) [ ("x", fun () -> 0) ])

let test_probe_expired_until () =
  (* [until <= now] still takes the immediate anchor sample but schedules
     no recurring timer — the series holds exactly one point even after
     the engine runs on. *)
  let engine = Engine.create () in
  ignore (Engine.schedule engine ~after:(Time.us 500) (fun () -> ()));
  Engine.run ~until:(Time.us 200) engine;
  let r = Obs.Recorder.create ~label:"probe" () in
  Obs.Recorder.with_recorder r (fun () ->
      Obs.Probe.attach engine ~interval:(Time.us 100) ~until:(Time.us 200)
        [ ("s", fun () -> 3) ];
      Engine.run ~until:(Time.ms 1) engine);
  match Obs.Recorder.series r with
  | [ ("s", points) ] ->
    Alcotest.(check (list (pair int int))) "anchor sample only"
      [ (Time.us 200, 3) ]
      points
  | _ -> Alcotest.fail "expected one series"

let suite =
  [
    Alcotest.test_case "json values" `Quick test_json_values;
    Alcotest.test_case "json rejects garbage" `Quick test_json_rejects_garbage;
    Alcotest.test_case "recorder registry" `Quick test_recorder_registry;
    Alcotest.test_case "recorder capacity" `Quick test_recorder_capacity;
    Alcotest.test_case "ambient no-op when uninstalled" `Quick
      test_ambient_noop_when_uninstalled;
    Alcotest.test_case "chrome trace round-trip" `Quick test_chrome_trace_round_trip;
    Alcotest.test_case "identities: one engine" `Quick test_identities_one_engine;
    Alcotest.test_case "identities: two shards" `Quick test_identities_two_shards;
    Alcotest.test_case "identities: fail-over" `Quick test_identities_across_failover;
    Alcotest.test_case "rare counters reach the dump" `Quick test_rare_counters;
    Alcotest.test_case "pool determinism" `Quick test_pool_determinism;
    Alcotest.test_case "sharded observed runs repeat" `Quick
      test_sharded_observed_determinism;
    Alcotest.test_case "probe sampling" `Quick test_probe_sampling;
    Alcotest.test_case "probe rejects bad interval" `Quick test_probe_rejects_bad_interval;
    Alcotest.test_case "probe expired until" `Quick test_probe_expired_until;
  ]
