(* The sharded Draconis cluster: its two layouts — every entity on one
   LP, or the switch on LP 0 and every host on LP 1 — give bit-identical
   outcomes (partitioning the data path over logical processes must not
   change a single metric), unfaulted and under a plan of every fault
   kind, whether the windows run inline or on a 2-lane team; an observed
   faulted run records the same marks in both, one per fabric drop; and
   the fail-loud guards.  The Lp/Sync building blocks are tested in
   test_shard.ml. *)

open Draconis_sim
open Draconis_workload
module H = Draconis_harness
module F = Draconis_fault
module Obs = Draconis_obs

let spec = { H.Systems.workers = 4; executors_per_worker = 4; clients = 2; seed = 7 }
let kind = Synthetic.Fixed_100us
let horizon = Time.ms 10
let rate_tps = 90_000.0

let driver = H.Exp_common.synthetic_driver kind ~rate_tps ~horizon

(* Everything in an outcome except wall-clock throughput, which is the
   one field allowed to differ between runs. *)
let digest (o : H.Runner.outcome) =
  [
    ("submitted", o.submitted);
    ("started", o.started);
    ("completed", o.completed);
    ("timeouts", o.timeouts);
    ("rejected", o.rejected);
    ("p50", o.sched_p50);
    ("p99", o.sched_p99);
    ("mean_ns", int_of_float o.sched_mean);
    ("swaps", o.swaps);
    ("recirculations", o.recirculations);
    ("repair_flags", o.repair_flags);
    ("events", o.events);
    ("drained", if o.drained then 1 else 0);
  ]

let run_sharded shards =
  let system = H.Systems.draconis ~racks:2 ~shards spec in
  H.Runner.run system ~driver ~load_tps:rate_tps ~horizon ()

(* Tasks of [kind] offered at the same utilization as [rate_tps] puts on
   100 us tasks (~56%); [seed] drives both the cluster and the workload. *)
let run_seeded ~kind ~seed shards =
  let executors = spec.workers * spec.executors_per_worker in
  let utilization =
    rate_tps /. H.Exp_common.capacity_tps Synthetic.Fixed_100us ~executors
  in
  let rate_tps = utilization *. H.Exp_common.capacity_tps kind ~executors in
  let system = H.Systems.draconis ~racks:2 ~shards { spec with seed } in
  H.Runner.run system
    ~driver:(H.Exp_common.synthetic_driver kind ~rate_tps ~horizon)
    ~load_tps:rate_tps ~horizon ~workload_seed:seed ()

let check_digests name reference other =
  Alcotest.(check (list (pair string int))) name (digest reference) (digest other)

let with_jobs n f =
  let saved = H.Pool.jobs () in
  H.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> H.Pool.set_jobs saved) f

let test_outcome_equality () =
  let reference = run_sharded 1 in
  Alcotest.(check bool) "work happened" true (reference.completed > 100);
  Alcotest.(check bool) "drained" true reference.drained;
  check_digests "shards=2 == shards=1" reference (run_sharded 2);
  (* The contract must hold for other seeds and for a fig6-shaped
     bimodal service mix (short tasks with a heavy tail), not just the
     one workload above. *)
  List.iter
    (fun (kind, name) ->
      List.iter
        (fun seed ->
          let reference = run_seeded ~kind ~seed 1 in
          Alcotest.(check bool)
            (Printf.sprintf "%s seed=%d drained" name seed)
            true
            (reference.drained && reference.completed > 100);
          check_digests
            (Printf.sprintf "%s seed=%d: shards=2 == shards=1" name seed)
            reference (run_seeded ~kind ~seed 2))
        [ 11; 4242; 1000003 ])
    [ (Synthetic.Fixed_100us, "fixed 100us"); (Synthetic.Bimodal, "bimodal") ]

(* One plan with all five event kinds, armed through the injector:
   fail-over on the switch LP, crash + restart and a straggler on their
   workers' LPs, a loss burst and a two-host cut as fabric windows.
   Outcome digest, fired log and recovery report are identical in both
   layouts, with the windows inline or on a 2-lane team. *)
let fault_plan =
  F.Plan.of_string
    "straggler@1ms:node=1,factor=4,dur=4ms; failover@2ms; crash@3ms:node=2,down=1ms; \
     partition@4ms:hosts=0+5,dur=1ms; burst@6ms:dur=500us,loss=0.1"

let run_faulted shards =
  let cluster, system =
    H.Systems.draconis_cluster ~racks:2 ~shards ~client_timeout:(Time.ms 2)
      { spec with seed = 42 }
  in
  let injector = F.Injector.arm fault_plan (F.Target.of_cluster cluster) in
  let outcome =
    H.Runner.run system ~driver ~load_tps:rate_tps ~horizon ~workload_seed:42 ()
  in
  ( digest outcome,
    F.Injector.fired injector,
    F.Recovery.measure ~metrics:system.H.Systems.metrics ~injector ~until:horizon () )

let test_fault_plan_equality () =
  let digest_1, fired_1, report_1 = with_jobs 1 (fun () -> run_faulted 1) in
  List.iter
    (fun jobs ->
      let name = Printf.sprintf "jobs=%d shards=2" jobs in
      let digest, fired, report = with_jobs jobs (fun () -> run_faulted 2) in
      Alcotest.(check (list (pair string int))) (name ^ ": outcome") digest_1 digest;
      Alcotest.(check (list (pair int string))) (name ^ ": fired") fired_1 fired;
      Alcotest.(check bool) (name ^ ": recovery report") true (report = report_1))
    [ 1; 2 ];
  Alcotest.(check int) "every edge fired" 9 (List.length fired_1);
  Alcotest.(check int) "one fail-over" 1 report_1.F.Recovery.failovers;
  Alcotest.(check bool) "the standby assigned again" true
    (report_1.F.Recovery.recovery <> None);
  Alcotest.(check bool) "drops become timeouts" true (report_1.F.Recovery.timeouts > 0);
  Alcotest.(check bool) "the rest completed" true (List.assoc "completed" digest_1 > 800)

(* The static fault kinds — a loss burst, a one-host cut and a
   straggler, all fixed windows known before the run — armed through
   the injector: the loss and cut windows go to the fabric as send-time
   data, the straggler edges onto the owning worker's LP.  Run observed
   on a 2-job pool (so the windows stay on the caller's domain): the
   degraded outcome and every mark the recorder holds are the same in
   both layouts, and the sharded fabric marks each drop on its "fabric"
   track, one "drop: loss" per lost message and one "drop: partition"
   per cut one, as the classic fabric does. *)
let static_faults =
  F.Plan.of_string
    "straggler@1ms:node=2,factor=3,dur=5ms; burst@2ms:dur=2ms,loss=0.05; \
     partition@3ms:hosts=1,dur=1ms"

let test_fault_equality () =
  let run shards =
    let cluster, system =
      H.Systems.draconis_cluster ~racks:2 ~shards ~client_timeout:(Time.ms 2) spec
    in
    ignore (F.Injector.arm static_faults (F.Target.of_cluster cluster));
    let recorder = Obs.Recorder.create ~label:"static faults" () in
    let outcome =
      with_jobs 2 (fun () ->
          Obs.Recorder.with_recorder recorder (fun () ->
              H.Runner.run system ~driver ~load_tps:rate_tps ~horizon ()))
    in
    let marks =
      List.filter_map
        (fun (e : Obs.Event.t) ->
          if e.phase = Obs.Event.Instant then Some (e.at, e.track, e.name) else None)
        (Obs.Recorder.events recorder)
    in
    let count name =
      List.length (List.filter (fun (_, track, n) -> track = "fabric" && n = name) marks)
    in
    let (c : H.Systems.counts) = system.H.Systems.counts () in
    Alcotest.(check int)
      (Printf.sprintf "shards=%d: one loss mark per lost message" shards)
      c.lost (count "drop: loss");
    Alcotest.(check int)
      (Printf.sprintf "shards=%d: one partition mark per cut message" shards)
      c.partition_dropped (count "drop: partition");
    (outcome, List.sort compare marks, c)
  in
  let reference, marks_1, c = run 1 in
  Alcotest.(check bool) "faults bit (losses recovered)" true
    (reference.timeouts > 0 && reference.completed > 100);
  Alcotest.(check bool) "both windows dropped messages" true
    (c.lost > 0 && c.partition_dropped > 0);
  let outcome, marks_2, _ = run 2 in
  check_digests "faulted shards=2 == shards=1" reference outcome;
  Alcotest.(check (list (triple int string string)))
    "faulted shards=2 marks == shards=1 marks" marks_1 marks_2

let test_executor_neutrality () =
  (* The barrier-window executor is pure execution vehicle: fanning each
     window over a 2-lane team must reproduce the inline
     run bit for bit.  Driven below Systems/Runner so the team size is
     ours to pick (the harness sizes it to the machine). *)
  let build () =
    let cluster =
      Draconis.Cluster.create
        {
          Draconis.Cluster.default_config with
          seed = 7;
          workers = 4;
          executors_per_worker = 4;
          clients = 2;
          racks = 2;
          shards = Some 2;
        }
    in
    Draconis.Cluster.start cluster;
    (* Stage a fixed workload directly onto the owning client LPs. *)
    Array.iteri
      (fun c client ->
        for j = 0 to 39 do
          ignore
            (Engine.schedule_at
               (Draconis.Client.engine client)
               ~at:(Time.us (50 + (j * 200) + c))
               (fun () ->
                 ignore
                   (Draconis.Client.submit_job client
                      (List.init 3 (fun tid ->
                           Draconis_proto.Task.make ~uid:0 ~jid:0 ~tid
                             ~fn_id:Draconis_proto.Task.Fn.busy_loop
                             ~fn_par:(Time.us 100) ())))))
        done)
      (Draconis.Cluster.clients cluster);
    cluster
  in
  let digest cluster =
    let m = Draconis.Cluster.metrics cluster in
    [
      Draconis.Metrics.submitted m;
      Draconis.Metrics.started m;
      Draconis.Metrics.completed m;
      Draconis.Cluster.events cluster;
    ]
  in
  let inline_cluster = build () in
  Draconis.Cluster.run inline_cluster ~until:horizon;
  let team = H.Pool.Team.create ~size:2 in
  let teamed =
    Fun.protect
      ~finally:(fun () -> H.Pool.Team.shutdown team)
      (fun () ->
        let cluster = build () in
        Draconis.Cluster.run ~executor:(H.Pool.Team.run team) cluster ~until:horizon;
        digest cluster)
  in
  Alcotest.(check (list int)) "teamed == inline" (digest inline_cluster) teamed

let test_shards_outside_layouts () =
  List.iter
    (fun shards ->
      Alcotest.check_raises
        (Printf.sprintf "shards=%d" shards)
        (Invalid_argument
           (Printf.sprintf
              "Cluster.create: %d shards (want 1 — every entity on one LP — or 2 — \
               the switch on LP 0, every host on LP 1)"
              shards))
        (fun () -> ignore (H.Systems.draconis ~shards spec)))
    [ 0; 3; 129 ]

let test_feed_noop_rejects_staged () =
  let system = H.Systems.draconis ~racks:2 ~shards:2 spec in
  Fun.protect
    ~finally:(fun () -> system.control.H.Systems.close ())
    (fun () ->
      Alcotest.(check bool) "closed-loop feeder fails loud" true
        (try
           H.Exp_common.feed_noop system ~in_flight:16 ~horizon;
           false
         with Invalid_argument _ -> true))

let suite =
  [
    Alcotest.test_case "outcomes bit-identical across shards {1,2}" `Quick
      test_outcome_equality;
    Alcotest.test_case "fault plans compose with sharding" `Quick
      test_fault_plan_equality;
    Alcotest.test_case "static faults bit-identical across shards" `Quick
      test_fault_equality;
    Alcotest.test_case "work-stealing executor is outcome-neutral" `Quick
      test_executor_neutrality;
    Alcotest.test_case "shards outside {1, 2} fails loud" `Quick
      test_shards_outside_layouts;
    Alcotest.test_case "feed_noop rejects staged systems" `Quick
      test_feed_noop_rejects_staged;
  ]
