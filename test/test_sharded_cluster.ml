(* The sharded Draconis cluster: outcome equality across shard counts
   (the tentpole guarantee — partitioning the data path over logical
   processes must not change a single metric), executor neutrality
   (inline vs a 2-lane team), window faults armed from a plan, and the fail-loud
   guards.  The all-kinds faulted equality (fail-over and crash
   included, across lane counts) lives with the determinism contract in
   test_shard.ml. *)

open Draconis_sim
open Draconis_workload
module H = Draconis_harness
module F = Draconis_fault

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

let test_outcome_equality () =
  let reference = run_sharded 1 in
  Alcotest.(check bool) "work happened" true (reference.completed > 100);
  Alcotest.(check bool) "drained" true reference.drained;
  List.iter
    (fun shards ->
      check_digests
        (Printf.sprintf "shards=%d == shards=1" shards)
        reference (run_sharded shards))
    [ 2; 4 ];
  (* The contract must hold for arbitrary seeds and for a fig6-shaped
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
            (Printf.sprintf "%s seed=%d: shards=3 == shards=1" name seed)
            reference (run_seeded ~kind ~seed 3))
        [ 11; 4242; 1000003 ])
    [ (Synthetic.Fixed_100us, "fixed 100us"); (Synthetic.Bimodal, "bimodal") ]

(* The static fault kinds — a loss burst, a one-host cut and a
   straggler, all fixed windows known before the run — armed through
   the injector: the loss and cut windows go to the fabric as send-time
   data, the straggler edges onto the owning worker's LP.  The degraded
   outcome is bit-identical at every shard count. *)
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
    H.Runner.run system ~driver ~load_tps:rate_tps ~horizon ()
  in
  let reference = run 1 in
  Alcotest.(check bool) "faults bit (losses recovered)" true
    (reference.timeouts > 0 && reference.completed > 100);
  List.iter
    (fun shards ->
      check_digests
        (Printf.sprintf "faulted shards=%d == shards=1" shards)
        reference (run shards))
    [ 2; 4 ]

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
          shards = Some 4;
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

let test_shards_exceed_lp_groups () =
  (* 4 workers + 2 clients admit 1 + 6 LP groups; 8 must fail loud. *)
  Alcotest.check_raises "too many shards"
    (Invalid_argument
       "Cluster.create: 8 shards exceed the 7 LP groups this topology admits \
        (1 switch LP + 6 hosts: 4 workers + 2 clients); lower --shards")
    (fun () -> ignore (run_sharded 8))

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
    Alcotest.test_case "outcomes bit-identical across shards {1,2,4}" `Quick
      test_outcome_equality;
    Alcotest.test_case "static faults bit-identical across shards" `Quick
      test_fault_equality;
    Alcotest.test_case "work-stealing executor is outcome-neutral" `Quick
      test_executor_neutrality;
    Alcotest.test_case "shards > LP groups fails loud" `Quick
      test_shards_exceed_lp_groups;
    Alcotest.test_case "feed_noop rejects staged systems" `Quick
      test_feed_noop_rejects_staged;
  ]
