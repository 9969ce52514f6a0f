(* Fault-plan subsystem tests: plan parsing/validation, fabric fault
   inputs (loss and cut windows, config validation), arm-time range checks, executor crash/restart and
   straggler injection, the client resubmission cap, and end-to-end
   determinism of injected runs. *)

open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis
open Draconis_fault
module B = Draconis_baselines
module Obs = Draconis_obs

let busy_task ~us n =
  Task.make ~uid:0 ~jid:0 ~tid:n ~fn_id:Task.Fn.busy_loop ~fn_par:(Time.us us) ()

(* -- Plan parsing and validation ------------------------------------------- *)

let test_plan_parse () =
  let plan =
    Plan.of_string
      "failover@5ms; crash@2ms:node=3,down=1ms; burst@1ms:dur=500us,loss=0.8; \
       partition@1500us:hosts=0+1+2,dur=2ms; straggler@1ms:node=2,factor=4,dur=2ms"
  in
  let events = Plan.events plan in
  Alcotest.(check int) "five events" 5 (List.length events);
  (* Sorted by firing time. *)
  Alcotest.(check (list int)) "sorted times"
    [ Time.ms 1; Time.ms 1; Time.us 1500; Time.ms 2; Time.ms 5 ]
    (List.map (fun { Plan.at; _ } -> at) events);
  (match (List.nth events 4).Plan.event with
  | Plan.Switch_failover -> ()
  | _ -> Alcotest.fail "last event should be the failover");
  match (List.nth events 3).Plan.event with
  | Plan.Crash { node; down_for } ->
    Alcotest.(check int) "crash node" 3 node;
    Alcotest.(check (option int)) "crash down window" (Some (Time.ms 1)) down_for
  | _ -> Alcotest.fail "expected the crash at 2ms"

let test_plan_round_trip () =
  let spec =
    "burst@1ms:dur=500us,loss=0.8;failover@5ms;crash@2ms:node=3,down=1ms;\
     partition@1ms:hosts=0+1+2,dur=2ms;straggler@1ms:node=2,factor=4,dur=2ms"
  in
  let plan = Plan.of_string spec in
  let reparsed = Plan.of_string (Plan.to_string plan) in
  Alcotest.(check string) "to_string round-trips" (Plan.to_string plan)
    (Plan.to_string reparsed);
  Alcotest.(check int) "same event count" (List.length (Plan.events plan))
    (List.length (Plan.events reparsed))

let check_invalid what f =
  match f () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail (what ^ ": expected Invalid_argument")

let test_plan_validation () =
  check_invalid "loss > 1" (fun () -> Plan.of_string "burst@1ms:dur=1ms,loss=1.5");
  check_invalid "factor < 1" (fun () ->
      Plan.of_string "straggler@1ms:node=0,factor=0.5,dur=1ms");
  check_invalid "empty hosts" (fun () ->
      Plan.create
        [ { Plan.at = 0; event = Plan.Partition { hosts = []; duration = 1 } } ]);
  check_invalid "negative time" (fun () ->
      Plan.create [ { Plan.at = -1; event = Plan.Switch_failover } ]);
  check_invalid "zero duration" (fun () ->
      Plan.of_string "partition@1ms:hosts=0,dur=0ms");
  check_invalid "unknown kind" (fun () -> Plan.of_string "meteor@1ms");
  check_invalid "unknown parameter" (fun () -> Plan.of_string "failover@1ms:color=red");
  check_invalid "missing parameter" (fun () -> Plan.of_string "crash@1ms:down=1ms");
  check_invalid "bad time unit" (fun () -> Plan.of_string "failover@1h");
  Alcotest.(check bool) "empty plan is empty" true (Plan.is_empty (Plan.of_string ""))

(* -- Fabric config validation (satellite: Fabric.create validates) --------- *)

let test_fabric_config_validation () =
  let engine = Engine.create () in
  let try_config config =
    ignore (Fabric.create ~config engine (Rng.create ~seed:1) : unit Fabric.t)
  in
  let base = Fabric.default_config in
  check_invalid "loss > 1" (fun () -> try_config { base with loss = 1.5 });
  check_invalid "loss < 0" (fun () -> try_config { base with loss = -0.1 });
  check_invalid "negative latency" (fun () ->
      try_config { base with host_to_switch = -1 });
  check_invalid "negative jitter" (fun () -> try_config { base with jitter = -5 });
  check_invalid "detour_fraction > 1" (fun () ->
      try_config { base with detour_fraction = 2.0 });
  (* A valid config still creates. *)
  try_config { base with loss = 0.1 }

(* [(track, name)] of every instant mark [f] leaves on a fresh recorder. *)
let marks_of f =
  let recorder = Obs.Recorder.create ~label:"faults" () in
  let result = Obs.Recorder.with_recorder recorder f in
  (result, Test_trace.marks recorder)

let test_drops_are_traced () =
  let (), marks =
    marks_of (fun () ->
        let engine = Engine.create () in
        let fabric = Fabric.create engine (Rng.create ~seed:1) in
        Fabric.register fabric (Addr.Host 1) (fun _ -> ());
        Fabric.set_windows fabric
          [
            { Fabric.start = 0; stop = Time.us 1; fault = Fabric.Loss 1.0 };
            { Fabric.start = Time.us 1; stop = Time.us 2; fault = Fabric.Cut [ 1 ] };
          ];
        let send_at at dst =
          ignore
            (Engine.schedule_at engine ~at (fun () ->
                 Fabric.send fabric ~src:(Addr.Host 0) ~dst ()))
        in
        send_at 0 (Addr.Host 1);
        send_at (Time.us 1) (Addr.Host 1);
        send_at (Time.us 2) (Addr.Host 2);
        Engine.run engine)
  in
  Alcotest.(check (list (pair string string))) "every drop path marked"
    [ ("fabric", "drop: loss"); ("fabric", "drop: partition");
      ("fabric", "drop: no handler") ]
    marks

(* -- Cut windows ------------------------------------------------------------ *)

(* Two overlapping cut windows on host 1, [0, 2us) and [1us, 3us), plus
   host 0 cut over the whole run: host 1 stays cut until the last of its
   windows closes, and no window ever cuts the switch. *)
let test_partition_and_heal () =
  let engine = Engine.create () in
  let fabric = Fabric.create engine (Rng.create ~seed:1) in
  let delivered = ref [] in
  List.iter
    (fun h ->
      Fabric.register fabric (Addr.Host h) (fun env ->
          delivered := (env.Fabric.src, env.Fabric.dst) :: !delivered))
    [ 1; 2 ];
  Fabric.register fabric Addr.Switch (fun env ->
      delivered := (env.Fabric.src, env.Fabric.dst) :: !delivered);
  Fabric.set_windows fabric
    [
      { Fabric.start = 0; stop = Time.us 2; fault = Fabric.Cut [ 1 ] };
      { Fabric.start = Time.us 1; stop = Time.us 3; fault = Fabric.Cut [ 1 ] };
      { Fabric.start = 0; stop = Time.ms 1; fault = Fabric.Cut [ 0 ] };
    ];
  let send_at at ~src ~dst =
    ignore (Engine.schedule_at engine ~at (fun () -> Fabric.send fabric ~src ~dst ()))
  in
  send_at (Time.ns 500) ~src:(Addr.Host 2) ~dst:(Addr.Host 1);
  send_at (Time.ns 2500) ~src:(Addr.Host 2) ~dst:(Addr.Host 1);
  send_at (Time.ns 2500) ~src:(Addr.Host 1) ~dst:Addr.Switch;
  send_at (Time.us 3) ~src:(Addr.Host 2) ~dst:(Addr.Host 1);
  send_at (Time.us 4) ~src:Addr.Switch ~dst:(Addr.Host 2);
  send_at (Time.us 4) ~src:(Addr.Host 2) ~dst:Addr.Switch;
  Engine.run engine;
  Alcotest.(check int) "dropped while any window cuts host 1" 3
    (Fabric.partition_dropped fabric);
  Alcotest.(check (list (pair string string)))
    "delivers once the last window closes; the switch is never cut"
    [ ("host-2", "host-1"); ("host-2", "switch"); ("switch", "host-2") ]
    (List.sort compare
       (List.map (fun (src, dst) -> (Addr.to_string src, Addr.to_string dst)) !delivered))

(* -- Straggler slowdown ------------------------------------------------------ *)

let test_cpu_slowdown () =
  let engine = Engine.create () in
  let cpu = Cpu.create engine in
  Cpu.set_slowdown cpu 2.0;
  let done_at = ref 0 in
  Cpu.submit cpu ~cost:(Time.us 100) (fun () -> done_at := Engine.now engine);
  Engine.run engine;
  Alcotest.(check int) "100us of work takes 200us at 2x slowdown" (Time.us 200)
    !done_at;
  check_invalid "slowdown below 1" (fun () -> Cpu.set_slowdown cpu 0.5)

(* -- Crash / restart through the injector ------------------------------------ *)

let faulted_cluster () =
  Cluster.create
    {
      Cluster.default_config with
      workers = 2;
      executors_per_worker = 2;
      clients = 1;
      client_timeout = Some (Time.ms 1);
    }

let test_crash_restart_recovery () =
  let cluster = faulted_cluster () in
  Cluster.start cluster;
  let target = Target.of_cluster cluster in
  let plan = Plan.of_string "crash@300us:node=0,down=1ms" in
  let injector = Injector.arm plan target in
  let (drained, m), marks =
    marks_of (fun () ->
        ignore
          (Client.submit_job (Cluster.client cluster 0)
             (List.init 8 (busy_task ~us:200)));
        Cluster.run cluster ~until:(Time.ms 3);
        let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 2) in
        (drained, Cluster.metrics cluster))
  in
  Alcotest.(check bool) "drained despite the crash" true drained;
  Alcotest.(check int) "every task completed" 8 (Metrics.completed m);
  Alcotest.(check bool) "crash lost work was recovered by timeouts" true
    (Client.resubmitted (Cluster.client cluster 0) > 0);
  Alcotest.(check int) "crash and restart both fired" 2
    (List.length (Injector.fired injector));
  let has mark = List.mem mark marks in
  Alcotest.(check bool) "executor crash traced" true (has ("exec 0:0", "crash"));
  Alcotest.(check bool) "executor restart traced" true (has ("exec 0:0", "restart"))

let test_straggler_window () =
  let cluster = faulted_cluster () in
  Cluster.start cluster;
  let target = Target.of_cluster cluster in
  let injector =
    Injector.arm (Plan.of_string "straggler@100us:node=0,factor=8,dur=1ms") target
  in
  ignore (Client.submit_job (Cluster.client cluster 0) (List.init 8 (busy_task ~us:200)));
  Cluster.run cluster ~until:(Time.us 500);
  (* Mid-window: node 0 executors are degraded, node 1 untouched. *)
  Alcotest.(check bool) "fired the degradation" true
    (List.length (Injector.fired injector) = 1);
  Cluster.run cluster ~until:(Time.ms 2);
  Alcotest.(check int) "degradation window closed" 2
    (List.length (Injector.fired injector));
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 2) in
  Alcotest.(check bool) "drained despite the straggler" true drained;
  Alcotest.(check int) "all completed" 8 (Metrics.completed (Cluster.metrics cluster))

let test_arm_rejects_unsupported () =
  let r2p2 =
    B.R2p2.create
      { B.R2p2.default_config with workers = 2; executors_per_worker = 2; clients = 1 }
  in
  let target = Target.of_r2p2 r2p2 in
  check_invalid "crash against push executors" (fun () ->
      Injector.arm (Plan.of_string "crash@1ms:node=0") target);
  check_invalid "straggler against push executors" (fun () ->
      Injector.arm (Plan.of_string "straggler@1ms:node=0,factor=2,dur=1ms") target);
  (* Fabric-level faults arm fine. *)
  ignore (Injector.arm (Plan.of_string "failover@1ms;burst@1ms:dur=1ms,loss=0.5") target)

(* -- Overlapping burst windows compose by max -------------------------------- *)

(* Bursts of p=0.5 over [0, 2ms) and p=1 over [1ms, 3ms), armed through
   the injector; 200 probe packets per millisecond show which loss the
   fabric applied in each phase. *)
let test_burst_overlap_max () =
  let cluster = faulted_cluster () in
  let fabric = Cluster.fabric cluster in
  let engine = Cluster.engine cluster in
  ignore
    (Injector.arm
       (Plan.of_string "burst@0ns:dur=2ms,loss=0.5;burst@1ms:dur=2ms,loss=1")
       (Target.of_cluster cluster));
  let received = Array.make 4 0 in
  Fabric.register fabric (Addr.Host 50) (fun env ->
      let phase = env.Fabric.sent_at / Time.ms 1 in
      received.(phase) <- received.(phase) + 1);
  for phase = 0 to 3 do
    for i = 0 to 199 do
      ignore
        (Engine.schedule_at engine
           ~at:(Time.ms phase + Time.us ((2 * i) + 1))
           (fun () ->
             Fabric.send fabric ~src:(Addr.Host 51) ~dst:(Addr.Host 50)
               (Message.Job_ack { uid = 0; jid = i })))
    done
  done;
  Engine.run engine;
  Alcotest.(check bool) "first window alone drops about half" true
    (received.(0) > 60 && received.(0) < 140);
  Alcotest.(check int) "overlap takes the max" 0 received.(1);
  Alcotest.(check int) "survivor wins after first ends" 0 received.(2);
  Alcotest.(check int) "cleared after both end" 200 received.(3)

(* -- Arm-time range checks ----------------------------------------------------- *)

(* Out-of-range nodes and hosts are rejected before anything is armed:
   a valid fail-over earlier in the same plan must never fire, and no
   fabric window may be installed. *)
let test_arm_checks_ranges () =
  let small = { Cluster.default_config with workers = 2; executors_per_worker = 2; clients = 1 } in
  List.iter
    (fun (label, shards) ->
      let cluster = Cluster.create { small with shards } in
      let target = Target.of_cluster cluster in
      Alcotest.(check (pair int int)) (label ^ ": nodes and hosts") (2, 3)
        (target.Target.nodes, target.Target.hosts);
      List.iter
        (fun plan ->
          check_invalid (label ^ ": " ^ plan) (fun () ->
              Injector.arm (Plan.of_string ("failover@1ms;burst@0ns:dur=1ms,loss=1;" ^ plan))
                target))
        [ "crash@2ms:node=2"; "straggler@2ms:node=99,factor=2,dur=1ms";
          "partition@2ms:hosts=0+3,dur=1ms" ];
      let program = Cluster.program cluster in
      Cluster.start cluster;
      Cluster.run cluster ~until:(Time.ms 3);
      Alcotest.(check bool) (label ^ ": the rejected fail-over never fired") true
        (Cluster.program cluster == program);
      Alcotest.(check int) (label ^ ": no window installed") 0
        (Fabric.lost (Cluster.fabric cluster));
      ignore
        (Injector.arm
           (Plan.of_string "crash@4ms:node=1;partition@4ms:hosts=2,dur=1ms")
           target))
    [ ("single-engine", None); ("sharded", Some 2) ];
  let r2p2 =
    B.R2p2.create
      { B.R2p2.default_config with workers = 2; executors_per_worker = 2; clients = 1 }
  in
  check_invalid "r2p2: partition host past the clients" (fun () ->
      Injector.arm (Plan.of_string "partition@1ms:hosts=3,dur=1ms") (Target.of_r2p2 r2p2))

(* -- Client resubmission cap (satellite) ------------------------------------- *)

let test_resubmission_cap () =
  (* Executors never started: every submission times out forever.  The
     cap must stop the retry loop and drain the client. *)
  let cluster = faulted_cluster () in
  let client = Cluster.client cluster 0 in
  ignore (Client.submit_job client (List.init 5 (busy_task ~us:100)));
  Cluster.run cluster ~until:(Time.ms 10);
  let m = Cluster.metrics cluster in
  Alcotest.(check int) "outstanding drained by abandonment" 0 (Cluster.outstanding cluster);
  Alcotest.(check int) "one abandonment per task" 5 (Client.abandoned client);
  Alcotest.(check int) "exactly max_resubmissions retries per task" 15
    (Client.resubmitted client);
  Alcotest.(check int) "initial try + 3 retries each time out" 20
    (Client.resubmitted client + Client.abandoned client);
  Alcotest.(check int) "nothing completed" 0 (Metrics.completed m)

(* -- Fail-over recovery bounded by the client timeout ------------------------- *)

let failover_run () =
  let cluster = faulted_cluster () in
  Cluster.start cluster;
  let target = Target.of_cluster cluster in
  let injector = Injector.arm (Plan.of_string "failover@500us") target in
  (* 20 x 200us on 4 executors: a deep backlog is queued when the switch
     dies at 500us. *)
  ignore (Client.submit_job (Cluster.client cluster 0) (List.init 20 (busy_task ~us:200)));
  Cluster.run cluster ~until:(Time.ms 2);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 2) in
  let report =
    Recovery.measure ~metrics:(Cluster.metrics cluster) ~injector ~until:(Time.ms 2) ()
  in
  (drained, report)

let test_failover_recovery_bounded () =
  let drained, report = failover_run () in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check int) "one fail-over" 1 report.Recovery.failovers;
  Alcotest.(check bool) "queued tasks were lost" true (report.Recovery.queued_lost > 0);
  Alcotest.(check int) "every task completed" 20 report.Recovery.completed;
  Alcotest.(check bool) "lost tasks were resubmitted, not abandoned" true
    (report.Recovery.resubmitted >= report.Recovery.queued_lost);
  Alcotest.(check int) "no task exhausted its budget" 0 report.Recovery.abandoned;
  (match report.Recovery.recovery with
  | None -> Alcotest.fail "no recovery time measured"
  | Some r ->
    Alcotest.(check bool) "standby assigns within the client timeout" true
      (r <= Time.ms 1));
  Alcotest.(check bool) "availability over the fault window" true
    (report.Recovery.availability > 0.0)

(* -- Determinism -------------------------------------------------------------- *)

let deterministic_scenario () =
  let cluster = faulted_cluster () in
  Cluster.start cluster;
  let target = Target.of_cluster cluster in
  let injector =
    Injector.arm
      (Plan.of_string
         "burst@200us:dur=300us,loss=0.6;failover@500us;crash@700us:node=1,down=500us")
      target
  in
  let engine = Cluster.engine cluster in
  for i = 0 to 29 do
    ignore
      (Engine.schedule engine ~after:(Time.us (30 * i)) (fun () ->
           ignore (Client.submit_job (Cluster.client cluster 0) [ busy_task ~us:200 i ])))
  done;
  Cluster.run cluster ~until:(Time.ms 3);
  ignore (Cluster.run_until_drained cluster ~deadline:(Time.s 2));
  ( Recovery.measure ~metrics:(Cluster.metrics cluster) ~injector ~until:(Time.ms 3) (),
    Injector.fired injector )

let test_fault_determinism () =
  let report_a, fired_a = deterministic_scenario () in
  let report_b, fired_b = deterministic_scenario () in
  Alcotest.(check bool) "identical recovery reports" true (report_a = report_b);
  Alcotest.(check (list (pair int string))) "identical fault logs" fired_a fired_b;
  Alcotest.(check bool) "scenario exercised losses" true
    (report_a.Recovery.timeouts > 0)

(* -- Baseline fail-over hooks ------------------------------------------------- *)

let test_central_server_failover () =
  let server =
    B.Central_server.create
      {
        B.Central_server.default_config with
        workers = 2;
        executors_per_worker = 2;
        clients = 1;
      }
  in
  (* Workers never started: submissions sit in the server queue. *)
  ignore (Client.submit_job (B.Central_server.client server 0) (List.init 7 (busy_task ~us:100)));
  B.Central_server.run server ~until:(Time.ms 1);
  Alcotest.(check int) "tasks queued at the server" 7
    (B.Central_server.queue_length server);
  Alcotest.(check int) "fail-over reports the losses" 7
    (B.Central_server.fail_over_server server);
  Alcotest.(check int) "standby starts empty" 0 (B.Central_server.queue_length server)

let test_r2p2_failover_resets_registers () =
  let r2p2 =
    B.R2p2.create
      { B.R2p2.default_config with workers = 2; executors_per_worker = 2; clients = 1 }
  in
  ignore (Client.submit_job (B.R2p2.client r2p2 0) (List.init 4 (busy_task ~us:500)));
  B.R2p2.run r2p2 ~until:(Time.us 100);
  let believed = ref 0 in
  for e = 0 to B.R2p2.total_executors r2p2 - 1 do
    believed := !believed + B.R2p2.counter r2p2 e
  done;
  Alcotest.(check bool) "counters track pushed tasks" true (!believed > 0);
  Alcotest.(check int) "fail-over wipes the believed occupancy" !believed
    (B.R2p2.fail_over_switch r2p2);
  for e = 0 to B.R2p2.total_executors r2p2 - 1 do
    Alcotest.(check int) "counter reset" 0 (B.R2p2.counter r2p2 e)
  done

let suite =
  [
    Alcotest.test_case "plan: parse and sort" `Quick test_plan_parse;
    Alcotest.test_case "plan: string round-trip" `Quick test_plan_round_trip;
    Alcotest.test_case "plan: validation" `Quick test_plan_validation;
    Alcotest.test_case "fabric: config validation" `Quick test_fabric_config_validation;
    Alcotest.test_case "fabric: drops are traced" `Quick test_drops_are_traced;
    Alcotest.test_case "fabric: partition and heal" `Quick test_partition_and_heal;
    Alcotest.test_case "cpu: straggler slowdown" `Quick test_cpu_slowdown;
    Alcotest.test_case "injector: crash and restart" `Quick test_crash_restart_recovery;
    Alcotest.test_case "injector: straggler window" `Quick test_straggler_window;
    Alcotest.test_case "injector: rejects unsupported faults" `Quick
      test_arm_rejects_unsupported;
    Alcotest.test_case "injector: overlapping bursts take max" `Quick
      test_burst_overlap_max;
    Alcotest.test_case "injector: arm-time range checks" `Quick test_arm_checks_ranges;
    Alcotest.test_case "client: resubmission cap" `Quick test_resubmission_cap;
    Alcotest.test_case "fail-over: recovery bounded by timeout" `Quick
      test_failover_recovery_bounded;
    Alcotest.test_case "fault runs are deterministic" `Quick test_fault_determinism;
    Alcotest.test_case "central server fail-over" `Quick test_central_server_failover;
    Alcotest.test_case "r2p2 fail-over resets registers" `Quick
      test_r2p2_failover_resets_registers;
  ]
