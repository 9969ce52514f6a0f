(* Fault-tolerance tests (paper sec 3.3): switch fail-over with loss of
   all queued state, recovered by client timeouts; plus the
   processor-sharing intra-node mode of the RackSched baseline. *)

open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis
module B = Draconis_baselines

let busy_task ~us n =
  Task.make ~uid:0 ~jid:0 ~tid:n ~fn_id:Task.Fn.busy_loop ~fn_par:(Time.us us) ()

let test_failover_loses_queue () =
  let cluster =
    Cluster.create
      { Cluster.default_config with workers = 2; executors_per_worker = 2; clients = 1 }
  in
  (* No executors started: everything submitted stays queued. *)
  ignore (Client.submit_job (Cluster.client cluster 0) (List.init 10 (busy_task ~us:100)));
  Cluster.run cluster ~until:(Time.ms 1);
  Alcotest.(check int) "tasks queued" 10
    (Switch_program.total_occupancy (Cluster.program cluster));
  let lost = Cluster.fail_over_switch cluster in
  Alcotest.(check int) "fail-over reports losses" 10 lost;
  Alcotest.(check int) "fresh switch empty" 0
    (Switch_program.total_occupancy (Cluster.program cluster))

let test_failover_clients_recover () =
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        workers = 2;
        executors_per_worker = 2;
        clients = 1;
        client_timeout = Some (Time.ms 1);
      }
  in
  Cluster.start cluster;
  let engine = Cluster.engine cluster in
  for i = 0 to 49 do
    ignore
      (Engine.schedule engine ~after:(Time.us (40 * i)) (fun () ->
           ignore (Client.submit_job (Cluster.client cluster 0) [ busy_task ~us:200 i ])))
  done;
  (* Kill the switch mid-run: tasks queued at that moment vanish. *)
  ignore (Engine.schedule engine ~after:(Time.us 800) (fun () ->
      ignore (Cluster.fail_over_switch cluster)));
  Cluster.run cluster ~until:(Time.ms 5);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 5) in
  let m = Cluster.metrics cluster in
  Alcotest.(check bool) "drained after fail-over" true drained;
  Alcotest.(check int) "all tasks eventually completed" 50 (Metrics.completed m)

let test_failover_preserves_policy () =
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        workers = 2;
        executors_per_worker = 2;
        clients = 1;
        policy_of = (fun _ -> Policy.Priority { levels = 4 });
      }
  in
  ignore (Cluster.fail_over_switch cluster);
  (* The standby switch runs the same policy: four queues exist. *)
  (match Switch_program.queue (Cluster.program cluster) 3 with
  | _ -> ());
  match Switch_program.queue (Cluster.program cluster) 4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unexpected fifth queue"

(* -- processor-sharing intra-node scheduler -------------------------------- *)

let test_ps_preempts_long_task () =
  let engine = Engine.create () in
  let starts = ref [] in
  let completions = ref [] in
  let metrics = Metrics.create engine in
  Metrics.observe metrics (function
    | Metrics.Started { task; _ } -> starts := (task.Task.id.tid, Engine.now engine) :: !starts
    | _ -> ());
  let worker =
    B.Node_worker.create ~engine ~metrics ~node:0 ~executors:1 ~fn_model:Fn_model.default
      ~dispatch_overhead:0
      ~intra:(B.Node_worker.Processor_sharing { quantum = Time.us 10; overhead = 0 })
      ~on_complete:(fun task ~client:_ ->
        completions := (task.Task.id.tid, Engine.now engine) :: !completions)
      ()
  in
  (* A 100us task arrives, then a 10us task right behind it. *)
  B.Node_worker.deliver worker (busy_task ~us:100 1) ~client:(Addr.Host 9);
  B.Node_worker.deliver worker (busy_task ~us:10 2) ~client:(Addr.Host 9);
  Engine.run engine;
  (* Under PS the short task starts after one quantum, not after 100us. *)
  (match List.assoc_opt 2 (List.rev !starts) with
  | Some t -> Alcotest.(check int) "short task starts after one quantum" (Time.us 10) t
  | None -> Alcotest.fail "short task never started");
  (match List.assoc_opt 2 !completions with
  | Some t ->
    Alcotest.(check bool) "short task finishes long before the 100us task" true
      (t <= Time.us 30)
  | None -> Alcotest.fail "short task never finished");
  Alcotest.(check bool) "preemptions recorded" true (B.Node_worker.preemptions worker > 0);
  Alcotest.(check int) "both done" 2 (B.Node_worker.tasks_executed worker)

let test_ps_work_conserving () =
  let engine = Engine.create () in
  let worker =
    B.Node_worker.create ~engine ~metrics:(Metrics.create engine) ~node:0 ~executors:2
      ~fn_model:Fn_model.default ~dispatch_overhead:0
      ~intra:(B.Node_worker.Processor_sharing { quantum = Time.us 20; overhead = 0 })
      ~on_complete:(fun _ ~client:_ -> ())
      ()
  in
  for i = 1 to 6 do
    B.Node_worker.deliver worker (busy_task ~us:40 i) ~client:(Addr.Host 9)
  done;
  Engine.run engine;
  Alcotest.(check int) "all complete" 6 (B.Node_worker.tasks_executed worker);
  (* 6 x 40us of work on 2 executors with zero-cost preemption: exactly
     120us of wall time. *)
  Alcotest.(check int) "no capacity lost to slicing" (Time.us 120) (Engine.now engine);
  Alcotest.(check int) "queue drained" 0 (B.Node_worker.occupancy worker)

let test_ps_racksched_end_to_end () =
  let sys =
    B.Racksched.create
      {
        B.Racksched.default_config with
        workers = 2;
        executors_per_worker = 2;
        clients = 1;
        intra = B.Node_worker.Processor_sharing { quantum = Time.us 25; overhead = Time.us 1 };
      }
  in
  let engine = B.Racksched.engine sys in
  for i = 0 to 29 do
    ignore
      (Engine.schedule engine ~after:(Time.us (40 * i)) (fun () ->
           ignore
             (Client.submit_job (B.Racksched.client sys 0)
                [ busy_task ~us:(if i mod 5 = 0 then 300 else 30) i ])))
  done;
  B.Racksched.run sys ~until:(Time.ms 3);
  let drained = B.Racksched.run_until_drained sys ~deadline:(Time.s 1) in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check int) "completed" 30 (Metrics.completed (B.Racksched.metrics sys))

let suite =
  [
    Alcotest.test_case "fail-over empties the switch" `Quick test_failover_loses_queue;
    Alcotest.test_case "clients recover from fail-over" `Quick
      test_failover_clients_recover;
    Alcotest.test_case "fail-over preserves policy" `Quick test_failover_preserves_policy;
    Alcotest.test_case "PS preempts long tasks" `Quick test_ps_preempts_long_task;
    Alcotest.test_case "PS is work conserving" `Quick test_ps_work_conserving;
    Alcotest.test_case "PS RackSched end-to-end" `Quick test_ps_racksched_end_to_end;
  ]
