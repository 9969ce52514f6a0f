(* Tests for the baseline schedulers: R2P2 (JBSQ), RackSched (power-of-k
   + intra-node), Sparrow (probing + late binding), and the centralized
   socket/DPDK servers. *)

open Draconis_sim
open Draconis_proto
open Draconis
module B = Draconis_baselines

let busy_task ~us n =
  Task.make ~uid:0 ~jid:0 ~tid:n ~fn_id:Task.Fn.busy_loop ~fn_par:(Time.us us) ()

(* -- Push_executor --------------------------------------------------------- *)

let test_push_executor_fcfs () =
  let engine = Engine.create () in
  let order = ref [] in
  let exec =
    B.Push_executor.create ~engine ~metrics:(Metrics.create engine) ~node:0 ~port:0
      ~fn_model:Fn_model.default
      ~on_complete:(fun task ~client:_ -> order := task.Task.id.tid :: !order)
      ()
  in
  B.Push_executor.push exec (busy_task ~us:10 1) ~client:(Draconis_net.Addr.Host 9);
  B.Push_executor.push exec (busy_task ~us:10 2) ~client:(Draconis_net.Addr.Host 9);
  B.Push_executor.push exec (busy_task ~us:10 3) ~client:(Draconis_net.Addr.Host 9);
  Alcotest.(check int) "occupancy counts in-service" 3 (B.Push_executor.occupancy exec);
  Engine.run engine;
  Alcotest.(check (list int)) "FCFS completion order" [ 1; 2; 3 ] (List.rev !order);
  Alcotest.(check int) "clock = serial service" (Time.us 30) (Engine.now engine);
  Alcotest.(check int) "executed" 3 (B.Push_executor.tasks_executed exec)

(* -- Node_worker ------------------------------------------------------------ *)

let test_node_worker_parallelism_and_overhead () =
  let engine = Engine.create () in
  let starts = ref [] in
  let metrics = Metrics.create engine in
  Metrics.observe metrics (function
    | Metrics.Started { task; _ } -> starts := (task.Task.id.tid, Engine.now engine) :: !starts
    | _ -> ());
  let worker =
    B.Node_worker.create ~engine ~metrics ~node:0 ~executors:2 ~fn_model:Fn_model.default
      ~dispatch_overhead:(Time.us 3)
      ~on_complete:(fun _ ~client:_ -> ())
      ()
  in
  for i = 1 to 3 do
    B.Node_worker.deliver worker (busy_task ~us:100 i) ~client:(Draconis_net.Addr.Host 9)
  done;
  Engine.run engine;
  let starts = List.rev !starts in
  (match starts with
  | [ (1, t1); (2, t2); (3, t3) ] ->
    Alcotest.(check int) "task 1 starts after overhead" (Time.us 3) t1;
    Alcotest.(check int) "task 2 starts in parallel" (Time.us 3) t2;
    (* Task 3 waits for an executor (node-level queueing), then pays
       dispatch overhead again. *)
    Alcotest.(check int) "task 3 blocked behind the node" (Time.us 106) t3
  | _ -> Alcotest.fail "expected three starts");
  Alcotest.(check int) "executed" 3 (B.Node_worker.tasks_executed worker)

(* -- R2P2 ---------------------------------------------------------------------- *)

let r2p2_config k =
  {
    B.R2p2.default_config with
    workers = 2;
    executors_per_worker = 4;
    clients = 1;
    jbsq_k = k;
    window = 4;
  }

let test_r2p2_completes_and_balances () =
  let sys = B.R2p2.create (r2p2_config 3) in
  let engine = B.R2p2.engine sys in
  for i = 0 to 39 do
    ignore
      (Engine.schedule engine ~after:(Time.us (40 * i)) (fun () ->
           ignore (Client.submit_job (B.R2p2.client sys 0) [ busy_task ~us:100 i ])))
  done;
  B.R2p2.run sys ~until:(Time.ms 5);
  let drained = B.R2p2.run_until_drained sys ~deadline:(Time.s 1) in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check int) "all completed" 40 (Metrics.completed (B.R2p2.metrics sys));
  (* All counters back to zero once idle. *)
  for e = 0 to B.R2p2.total_executors sys - 1 do
    Alcotest.(check int) "counter drained" 0 (B.R2p2.counter sys e)
  done

let test_r2p2_counter_bound () =
  let sys = B.R2p2.create (r2p2_config 3) in
  (* A burst larger than total slots: counters must never exceed k. *)
  ignore (Client.submit_job (B.R2p2.client sys 0) (List.init 40 (busy_task ~us:500)));
  let ok = ref true in
  let engine = B.R2p2.engine sys in
  for _ = 1 to 200 do
    Engine.run ~until:(Engine.now engine + Time.us 50) engine;
    for e = 0 to B.R2p2.total_executors sys - 1 do
      if B.R2p2.counter sys e > 3 then ok := false
    done
  done;
  Alcotest.(check bool) "JBSQ bound respected at all times" true !ok

let test_r2p2_k1_recirculates_when_full () =
  let sys = B.R2p2.create (r2p2_config 1) in
  (* 8 executors, k=1: the 9th concurrent task must recirculate. *)
  ignore (Client.submit_job (B.R2p2.client sys 0) (List.init 12 (busy_task ~us:500)));
  B.R2p2.run sys ~until:(Time.us 300);
  Alcotest.(check bool) "search recirculation happening" true
    (Draconis_p4.Pipeline.recirculated (B.R2p2.pipeline sys) > 0);
  ignore (B.R2p2.run_until_drained sys ~deadline:(Time.s 1))

let test_r2p2_work_stealing () =
  (* One busy node with stacked tasks + one idle node: stealing must
     move work across nodes and keep counters consistent. *)
  let sys =
    B.R2p2.create { (r2p2_config 3) with work_stealing = true; workers = 2 }
  in
  (* A burst that stacks tasks 2-3 deep on the 8 executors. *)
  ignore (Client.submit_job (B.R2p2.client sys 0) (List.init 20 (busy_task ~us:300)));
  B.R2p2.run sys ~until:(Time.ms 2);
  let drained = B.R2p2.run_until_drained sys ~deadline:(Time.s 2) in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check int) "all completed exactly once" 20
    (Metrics.completed (B.R2p2.metrics sys));
  Alcotest.(check bool) "steals happened" true (B.R2p2.steals sys > 0);
  (* Counters settle to zero despite the out-of-band moves. *)
  for e = 0 to B.R2p2.total_executors sys - 1 do
    Alcotest.(check int) "counters consistent after steals" 0 (B.R2p2.counter sys e)
  done

(* -- RackSched ------------------------------------------------------------------- *)

let racksched_config =
  {
    B.Racksched.default_config with
    workers = 4;
    executors_per_worker = 2;
    clients = 1;
  }

let test_racksched_completes () =
  let sys = B.Racksched.create racksched_config in
  let engine = B.Racksched.engine sys in
  for i = 0 to 49 do
    ignore
      (Engine.schedule engine ~after:(Time.us (30 * i)) (fun () ->
           ignore (Client.submit_job (B.Racksched.client sys 0) [ busy_task ~us:100 i ])))
  done;
  B.Racksched.run sys ~until:(Time.ms 5);
  let drained = B.Racksched.run_until_drained sys ~deadline:(Time.s 1) in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check int) "completed" 50 (Metrics.completed (B.Racksched.metrics sys));
  (* Queue-length counters must return to zero. *)
  for node = 0 to 3 do
    Alcotest.(check int) "qlen drained" 0 (B.Racksched.queue_length sys node)
  done

let test_racksched_dispatch_overhead_floor () =
  let sys = B.Racksched.create racksched_config in
  ignore (Client.submit_job (B.Racksched.client sys 0) [ busy_task ~us:100 0 ]);
  ignore (B.Racksched.run_until_drained sys ~deadline:(Time.s 1));
  let delays = Metrics.scheduling_delay (B.Racksched.metrics sys) in
  let p50 = Draconis_stats.Sampler.percentile delays 50.0 in
  (* One-way hop (~1.5us) + 3.5us dispatch + jitter: at least 5us. *)
  Alcotest.(check bool) "intra-node overhead visible" true (p50 >= Time.us 5)

let test_racksched_spreads_load () =
  let sys = B.Racksched.create racksched_config in
  ignore (Client.submit_job (B.Racksched.client sys 0) (List.init 16 (busy_task ~us:400)));
  B.Racksched.run sys ~until:(Time.us 200);
  (* Power-of-two on 4 nodes: no node may receive everything. *)
  let max_qlen =
    List.fold_left max 0 (List.init 4 (fun n -> B.Racksched.queue_length sys n))
  in
  Alcotest.(check bool) "no herd onto one node" true (max_qlen < 16);
  ignore (B.Racksched.run_until_drained sys ~deadline:(Time.s 1))

(* -- Sparrow ----------------------------------------------------------------------- *)

let sparrow_config =
  {
    B.Sparrow.default_config with
    workers = 4;
    executors_per_worker = 2;
    clients = 1;
    schedulers = 1;
  }

let test_sparrow_completes () =
  let sys = B.Sparrow.create sparrow_config in
  let engine = B.Sparrow.engine sys in
  for i = 0 to 29 do
    ignore
      (Engine.schedule engine ~after:(Time.us (50 * i)) (fun () ->
           B.Sparrow.submit_job sys ~client:0 [ busy_task ~us:100 i; busy_task ~us:100 (100 + i) ]))
  done;
  B.Sparrow.run sys ~until:(Time.ms 5);
  let drained = B.Sparrow.run_until_drained sys ~deadline:(Time.s 1) in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check int) "completed" 60 (Metrics.completed (B.Sparrow.metrics sys));
  Alcotest.(check int) "started = submitted" 60 (Metrics.started (B.Sparrow.metrics sys));
  (* Late binding cleans up its probes. *)
  for node = 0 to 3 do
    Alcotest.(check int) "probe queue drained" 0 (B.Sparrow.probe_backlog sys node)
  done

let test_sparrow_two_schedulers_share () =
  let sys = B.Sparrow.create { sparrow_config with schedulers = 2; clients = 2 } in
  for i = 0 to 9 do
    B.Sparrow.submit_job sys ~client:(i mod 2) [ busy_task ~us:50 i ]
  done;
  let drained = B.Sparrow.run_until_drained sys ~deadline:(Time.s 1) in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check int) "completed" 10 (Metrics.completed (B.Sparrow.metrics sys))

(* -- Central server ------------------------------------------------------------------ *)

let server_config variant =
  {
    B.Central_server.default_config with
    workers = 2;
    executors_per_worker = 4;
    clients = 1;
    variant;
  }

let test_server_completes () =
  let sys = B.Central_server.create (server_config B.Central_server.Dpdk) in
  B.Central_server.start sys;
  let engine = B.Central_server.engine sys in
  for i = 0 to 49 do
    ignore
      (Engine.schedule engine ~after:(Time.us (20 * i)) (fun () ->
           ignore
             (Client.submit_job (B.Central_server.client sys 0) [ busy_task ~us:100 i ])))
  done;
  B.Central_server.run sys ~until:(Time.ms 5);
  let drained = B.Central_server.run_until_drained sys ~deadline:(Time.s 1) in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check int) "completed" 50 (Metrics.completed (B.Central_server.metrics sys));
  Alcotest.(check int) "queue empty" 0 (B.Central_server.queue_length sys);
  Alcotest.(check bool) "cpu actually billed" true
    (B.Central_server.packets_processed sys > 100)

let test_server_parks_idle_executors () =
  let sys = B.Central_server.create (server_config B.Central_server.Dpdk) in
  B.Central_server.start sys;
  B.Central_server.run sys ~until:(Time.ms 2);
  (* No work: all 8 executors end up parked, none spinning. *)
  Alcotest.(check int) "all executors parked" 8 (B.Central_server.idle_executors sys)

let test_framework_variants_exist () =
  (* The sec-8 "other schedulers": Spark-native is slower per packet
     than Firmament, which is slower than DPDK. *)
  let cost v = B.Central_server.per_packet_cost v in
  Alcotest.(check bool) "spark slowest" true
    (cost B.Central_server.Spark_native > cost B.Central_server.Firmament);
  Alcotest.(check bool) "firmament above dpdk" true
    (cost B.Central_server.Firmament > cost B.Central_server.Dpdk);
  (* And a Spark-native server still completes a tiny workload. *)
  let sys = B.Central_server.create (server_config B.Central_server.Spark_native) in
  B.Central_server.start sys;
  ignore (Client.submit_job (B.Central_server.client sys 0) (List.init 5 (busy_task ~us:100)));
  B.Central_server.run sys ~until:(Time.ms 1);
  let drained = B.Central_server.run_until_drained sys ~deadline:(Time.s 1) in
  Alcotest.(check bool) "drained" true drained

let test_socket_slower_than_dpdk () =
  let measure variant =
    let sys = B.Central_server.create (server_config variant) in
    B.Central_server.start sys;
    let engine = B.Central_server.engine sys in
    for i = 0 to 199 do
      ignore
        (Engine.schedule engine ~after:(Time.us (2 * i)) (fun () ->
             ignore
               (Client.submit_job (B.Central_server.client sys 0) [ busy_task ~us:20 i ])))
    done;
    B.Central_server.run sys ~until:(Time.ms 1);
    ignore (B.Central_server.run_until_drained sys ~deadline:(Time.s 2));
    Draconis_stats.Sampler.percentile
      (Metrics.scheduling_delay (B.Central_server.metrics sys))
      99.0
  in
  let dpdk = measure B.Central_server.Dpdk in
  let socket = measure B.Central_server.Socket in
  Alcotest.(check bool) "socket p99 above dpdk p99" true (socket > dpdk)

let suite =
  [
    Alcotest.test_case "push executor FCFS" `Quick test_push_executor_fcfs;
    Alcotest.test_case "node worker parallelism + overhead" `Quick
      test_node_worker_parallelism_and_overhead;
    Alcotest.test_case "r2p2 completes, counters drain" `Quick
      test_r2p2_completes_and_balances;
    Alcotest.test_case "r2p2 JBSQ bound invariant" `Quick test_r2p2_counter_bound;
    Alcotest.test_case "r2p2-1 recirculates when full" `Quick
      test_r2p2_k1_recirculates_when_full;
    Alcotest.test_case "r2p2 work stealing" `Quick test_r2p2_work_stealing;
    Alcotest.test_case "racksched completes, counters drain" `Quick
      test_racksched_completes;
    Alcotest.test_case "racksched dispatch overhead floor" `Quick
      test_racksched_dispatch_overhead_floor;
    Alcotest.test_case "racksched spreads load" `Quick test_racksched_spreads_load;
    Alcotest.test_case "sparrow completes, probes drain" `Quick test_sparrow_completes;
    Alcotest.test_case "sparrow dual schedulers" `Quick test_sparrow_two_schedulers_share;
    Alcotest.test_case "central server completes" `Quick test_server_completes;
    Alcotest.test_case "central server parks idle pulls" `Quick
      test_server_parks_idle_executors;
    Alcotest.test_case "socket slower than dpdk" `Quick test_socket_slower_than_dpdk;
    Alcotest.test_case "framework scheduler variants" `Quick
      test_framework_variants_exist;
  ]
