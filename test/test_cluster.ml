(* End-to-end integration tests of the Draconis cluster: clients,
   switch, pull executors, metrics, fault injection. *)

open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis

let small_config =
  {
    Cluster.default_config with
    workers = 2;
    executors_per_worker = 4;
    clients = 1;
    queue_capacity = 1024;
  }

let busy_task ~us n =
  Task.make ~uid:0 ~jid:0 ~tid:n ~fn_id:Task.Fn.busy_loop ~fn_par:(Time.us us) ()

let run_jobs ?(config = small_config) ~jobs ~tasks_per_job ~task_us () =
  let cluster = Cluster.create config in
  Cluster.start cluster;
  let engine = Cluster.engine cluster in
  for i = 0 to jobs - 1 do
    ignore
      (Engine.schedule engine ~after:(Time.us (50 * i)) (fun () ->
           ignore
             (Client.submit_job (Cluster.client cluster 0)
                (List.init tasks_per_job (busy_task ~us:task_us)))))
  done;
  Cluster.run cluster ~until:(Time.ms 10);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 2) in
  (cluster, drained)

let test_all_tasks_complete () =
  let cluster, drained = run_jobs ~jobs:50 ~tasks_per_job:4 ~task_us:100 () in
  let m = Cluster.metrics cluster in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check int) "submitted" 200 (Metrics.submitted m);
  Alcotest.(check int) "started" 200 (Metrics.started m);
  Alcotest.(check int) "completed" 200 (Metrics.completed m);
  Alcotest.(check int) "no unstarted" 0 (Metrics.unstarted m);
  Alcotest.(check int) "queue empty at end" 0
    (Switch_program.total_occupancy (Cluster.program cluster))

let test_executor_conservation () =
  let cluster, _ = run_jobs ~jobs:30 ~tasks_per_job:2 ~task_us:50 () in
  let executed =
    Array.fold_left
      (fun acc worker -> acc + Worker.tasks_executed worker)
      0 (Cluster.workers cluster)
  in
  Alcotest.(check int) "every task executed exactly once" 60 executed

let test_scheduling_delay_sane () =
  let cluster, _ = run_jobs ~jobs:40 ~tasks_per_job:1 ~task_us:100 () in
  let delays = Metrics.scheduling_delay (Cluster.metrics cluster) in
  let p50 = Draconis_stats.Sampler.percentile delays 50.0 in
  (* One client->switch hop (~1.5us) plus pull wait; must sit in the
     microsecond range, not milliseconds. *)
  Alcotest.(check bool) "p50 within [1us, 40us]" true (p50 >= Time.us 1 && p50 <= Time.us 40)

let test_no_duplicate_execution_under_load () =
  let cluster, drained = run_jobs ~jobs:100 ~tasks_per_job:8 ~task_us:30 () in
  Alcotest.(check bool) "drained" true drained;
  let m = Cluster.metrics cluster in
  Alcotest.(check int) "started equals submitted" (Metrics.submitted m)
    (Metrics.started m)

let test_queue_full_retry_eventually_completes () =
  (* Tiny queue: bursts bounce, the client retries, everything finishes. *)
  let config = { small_config with queue_capacity = 8 } in
  let cluster = Cluster.create config in
  Cluster.start cluster;
  ignore
    (Client.submit_job (Cluster.client cluster 0) (List.init 40 (busy_task ~us:200)));
  Cluster.run cluster ~until:(Time.ms 5);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 2) in
  let m = Cluster.metrics cluster in
  Alcotest.(check bool) "drained despite bounces" true drained;
  Alcotest.(check int) "all 40 completed" 40 (Metrics.completed m);
  Alcotest.(check bool) "bounces actually happened" true
    (Client.queue_full_bounces (Cluster.client cluster 0) > 0)

let test_client_timeout_recovers_lost_packets () =
  (* Inject 2% fabric loss; client timeouts must recover every task. *)
  let config =
    {
      small_config with
      fabric_config = { Fabric.default_config with loss = 0.02 };
      client_timeout = Some (Time.ms 1);
    }
  in
  let cluster = Cluster.create config in
  Cluster.start cluster;
  let engine = Cluster.engine cluster in
  for i = 0 to 99 do
    ignore
      (Engine.schedule engine ~after:(Time.us (20 * i)) (fun () ->
           ignore (Client.submit_job (Cluster.client cluster 0) [ busy_task ~us:50 i ])))
  done;
  Cluster.run cluster ~until:(Time.ms 5);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 5) in
  let m = Cluster.metrics cluster in
  Alcotest.(check bool) "drained with loss" true drained;
  Alcotest.(check int) "all completed" 100 (Metrics.completed m)

let test_priority_cluster_end_to_end () =
  let config =
    { small_config with policy_of = (fun _ -> Policy.Priority { levels = 4 }) }
  in
  let cluster = Cluster.create config in
  Cluster.start cluster;
  let tasks =
    List.init 40 (fun i ->
        Task.make ~uid:0 ~jid:0 ~tid:i ~tprops:(Task.Priority ((i mod 4) + 1))
          ~fn_id:Task.Fn.busy_loop ~fn_par:(Time.us 100) ())
  in
  ignore (Client.submit_job (Cluster.client cluster 0) tasks);
  Cluster.run cluster ~until:(Time.ms 2);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 2) in
  Alcotest.(check bool) "drained" true drained;
  let m = Cluster.metrics cluster in
  (* With an 8-executor backlog, higher priorities must clear faster. *)
  let median level =
    let s = Metrics.queueing_delay m ~level in
    if Draconis_stats.Sampler.count s = 0 then 0
    else Draconis_stats.Sampler.percentile s 50.0
  in
  Alcotest.(check bool) "p1 <= p4 queueing" true (median 0 <= median 3)

let test_locality_cluster_prefers_local () =
  let config =
    {
      small_config with
      workers = 4;
      racks = 2;
      policy_of =
        (fun topology ->
          Policy.Locality_aware { rack_start_limit = 3; global_start_limit = 9; topology });
    }
  in
  let cluster = Cluster.create config in
  Cluster.start cluster;
  let rng = Rng.create ~seed:5 in
  let engine = Cluster.engine cluster in
  for i = 0 to 199 do
    ignore
      (Engine.schedule engine ~after:(Time.us (30 * i)) (fun () ->
           let home = Rng.int rng 4 in
           ignore
             (Client.submit_job (Cluster.client cluster 0)
                [
                  Task.make ~uid:0 ~jid:0 ~tid:i ~tprops:(Task.Locality [ home ])
                    ~fn_id:Task.Fn.data_task ~fn_par:(Time.us 100) ();
                ])))
  done;
  Cluster.run cluster ~until:(Time.ms 10);
  ignore (Cluster.run_until_drained cluster ~deadline:(Time.s 2));
  let placement = Metrics.placement (Cluster.metrics cluster) in
  let locality_hits = placement.Metrics.local in
  (* Random placement would land ~25% local; the policy must beat it. *)
  Alcotest.(check bool) "locality beats random placement" true (locality_hits > 70)

let test_resource_cluster_respects_constraints () =
  let config =
    {
      small_config with
      workers = 2;
      policy_of = (fun _ -> Policy.Resource_aware { max_swaps = 8 });
      rsrc_of_node = (fun node -> if node = 0 then 1 else 3);
    }
  in
  let cluster = Cluster.create config in
  Cluster.start cluster;
  (* Track where resource-2 tasks run. *)
  let wrong_node = ref 0 in
  Metrics.observe (Cluster.metrics cluster) (function
    | Metrics.Started { task; node; port = _ } ->
      if Task.required_resources task land 2 <> 0 && node <> 1 then incr wrong_node
    | _ -> ());
  let tasks =
    List.init 30 (fun i ->
        Task.make ~uid:0 ~jid:0 ~tid:i
          ~tprops:(Task.Resources (if i mod 2 = 0 then 2 else 0))
          ~fn_id:Task.Fn.busy_loop ~fn_par:(Time.us 100) ())
  in
  ignore (Client.submit_job (Cluster.client cluster 0) tasks);
  Cluster.run cluster ~until:(Time.ms 2);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 2) in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check int) "no constraint violations" 0 !wrong_node

let test_pipeline_recirc_modest_fcfs () =
  let cluster, _ = run_jobs ~jobs:100 ~tasks_per_job:1 ~task_us:100 () in
  let frac = Draconis_p4.Pipeline.recirculation_fraction (Cluster.pipeline cluster) in
  (* Single-task jobs: only pointer-repair packets recirculate.  At low
     load the queue empties between jobs, so idle-poll overruns make a
     repair follow most submissions; the fraction must still stay far
     below R2P2's search storms (tens of percent). *)
  Alcotest.(check bool) "recirculation below 15%" true (frac < 0.15)

(* Random mini-scenarios: for any cluster shape, job mix, and policy,
   every submitted task is executed exactly once and completes. *)
let prop_conservation =
  QCheck.Test.make ~name:"conservation under random scenarios" ~count:15
    QCheck.(
      quad (int_range 1 4) (int_range 1 4)
        (list_of_size (Gen.int_range 1 25) (int_range 1 12))
        (int_range 0 2))
    (fun (workers, epw, job_sizes, policy_pick) ->
      let policy_of topology =
        match policy_pick with
        | 0 -> Policy.Fcfs
        | 1 -> Policy.Priority { levels = 4 }
        | _ ->
          Policy.Locality_aware
            { rack_start_limit = 2; global_start_limit = 5; topology }
      in
      let config =
        { small_config with workers; executors_per_worker = epw; policy_of }
      in
      let cluster = Cluster.create config in
      Cluster.start cluster;
      let engine = Cluster.engine cluster in
      let rng = Rng.create ~seed:(workers + (17 * epw) + (291 * policy_pick)) in
      List.iteri
        (fun i size ->
          ignore
            (Engine.schedule engine ~after:(Time.us (40 * i)) (fun () ->
                 let tasks =
                   List.init size (fun tid ->
                       let tprops =
                         match policy_pick with
                         | 1 -> Task.Priority (1 + Rng.int rng 4)
                         | 2 -> Task.Locality [ Rng.int rng workers ]
                         | _ -> Task.No_props
                       in
                       Task.make ~uid:0 ~jid:0 ~tid ~tprops ~fn_id:Task.Fn.busy_loop
                         ~fn_par:(Time.us (20 + Rng.int rng 200)) ())
                 in
                 ignore (Client.submit_job (Cluster.client cluster 0) tasks))))
        job_sizes;
      Cluster.run cluster ~until:(Time.ms 5);
      let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 3) in
      let m = Cluster.metrics cluster in
      let executed =
        Array.fold_left
          (fun acc w -> acc + Worker.tasks_executed w)
          0 (Cluster.workers cluster)
      in
      let total = List.fold_left ( + ) 0 job_sizes in
      drained && Metrics.submitted m = total && Metrics.completed m = total
      && executed = total)

let suite =
  [
    Alcotest.test_case "all tasks complete" `Quick test_all_tasks_complete;
    Alcotest.test_case "conservation across executors" `Quick test_executor_conservation;
    Alcotest.test_case "scheduling delay sane" `Quick test_scheduling_delay_sane;
    Alcotest.test_case "no duplicates under load" `Quick
      test_no_duplicate_execution_under_load;
    Alcotest.test_case "queue-full retry completes" `Quick
      test_queue_full_retry_eventually_completes;
    Alcotest.test_case "client timeout recovers packet loss" `Quick
      test_client_timeout_recovers_lost_packets;
    Alcotest.test_case "priority end-to-end" `Quick test_priority_cluster_end_to_end;
    Alcotest.test_case "locality end-to-end" `Quick test_locality_cluster_prefers_local;
    Alcotest.test_case "resource constraints end-to-end" `Quick
      test_resource_cluster_respects_constraints;
    Alcotest.test_case "FCFS recirculation modest" `Quick test_pipeline_recirc_modest_fcfs;
    QCheck_alcotest.to_alcotest prop_conservation;
  ]
