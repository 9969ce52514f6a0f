(* Focused tests of the host components: client job splitting and
   retries, executor pull loop and no-op backoff, worker demux, and the
   metrics correlation layer. *)

open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis

let no_jitter = { Fabric.default_config with host_to_switch = Time.us 1; jitter = 0 }

let make_env () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:3 in
  let fabric = Fabric.create ~config:no_jitter engine rng in
  let metrics = Metrics.create engine in
  (engine, fabric, metrics)

let busy_task n =
  Task.make ~uid:0 ~jid:0 ~tid:n ~fn_id:Task.Fn.busy_loop ~fn_par:(Time.us 10) ()

(* -- Client ------------------------------------------------------------------ *)

let test_client_splits_large_jobs () =
  let engine, fabric, metrics = make_env () in
  let packets = ref [] in
  Fabric.register fabric Addr.Switch (fun env -> packets := env.Fabric.payload :: !packets);
  let client =
    Client.create ~config:(Client.default_config ~host:5 ~uid:7) ~fabric ~metrics ()
  in
  let n = Codec.max_tasks_per_packet + 10 in
  ignore (Client.submit_job client (List.init n busy_task));
  Engine.run engine;
  let sizes =
    List.filter_map
      (function Message.Job_submission { tasks; _ } -> Some (List.length tasks) | _ -> None)
      !packets
  in
  Alcotest.(check int) "two packets" 2 (List.length sizes);
  Alcotest.(check int) "all tasks shipped" n (List.fold_left ( + ) 0 sizes);
  List.iter
    (fun size ->
      Alcotest.(check bool) "each within MTU" true (size <= Codec.max_tasks_per_packet))
    sizes;
  Alcotest.(check int) "outstanding tracked" n (Client.outstanding client)

let test_client_rewrites_ids () =
  let engine, fabric, metrics = make_env () in
  let seen = ref [] in
  Fabric.register fabric Addr.Switch (fun env ->
      match env.Fabric.payload with
      | Message.Job_submission { uid; jid; tasks; _ } ->
        List.iter (fun (t : Task.t) -> seen := (uid, jid, t.id) :: !seen) tasks
      | _ -> ());
  let client =
    Client.create ~config:(Client.default_config ~host:5 ~uid:7) ~fabric ~metrics ()
  in
  let jid0 = Client.submit_job client [ busy_task 99 ] in
  let jid1 = Client.submit_job client [ busy_task 99; busy_task 99 ] in
  Engine.run engine;
  Alcotest.(check bool) "jids increase" true (jid1 = jid0 + 1);
  List.iter
    (fun (uid, jid, (id : Task.id)) ->
      Alcotest.(check int) "uid stamped" 7 uid;
      Alcotest.(check bool) "task id matches packet header" true
        (id.uid = 7 && id.jid = jid))
    !seen

let test_client_queue_full_retry () =
  let engine, fabric, metrics = make_env () in
  let submissions = ref 0 in
  (* A "switch" that bounces the first submission and accepts the rest. *)
  Fabric.register fabric Addr.Switch (fun env ->
      match env.Fabric.payload with
      | Message.Job_submission { client; uid; jid; tasks } ->
        incr submissions;
        if !submissions = 1 then
          Fabric.send fabric ~src:Addr.Switch ~dst:client
            (Message.Queue_full { uid; jid; tasks })
      | _ -> ());
  let client =
    Client.create ~config:(Client.default_config ~host:5 ~uid:0) ~fabric ~metrics ()
  in
  ignore (Client.submit_job client [ busy_task 1; busy_task 2 ]);
  Engine.run engine;
  Alcotest.(check int) "retried once" 2 !submissions;
  Alcotest.(check int) "bounce counted" 2 (Client.queue_full_bounces client)

let test_client_completion_dedup () =
  let engine, fabric, metrics = make_env () in
  Fabric.register fabric Addr.Switch (fun _ -> ());
  let client =
    Client.create ~config:(Client.default_config ~host:5 ~uid:0) ~fabric ~metrics ()
  in
  let jid = Client.submit_job client [ busy_task 0 ] in
  let completion =
    Message.Task_completion
      {
        task_id = { uid = 0; jid; tid = 0 };
        client = Addr.Host 5;
        info = { exec_addr = Addr.Host 0; exec_port = 0; exec_rsrc = 0; exec_node = 0 };
        rtrv_prio = 1;
      }
  in
  Fabric.send fabric ~src:Addr.Switch ~dst:(Addr.Host 5) completion;
  Fabric.send fabric ~src:Addr.Switch ~dst:(Addr.Host 5) completion;
  Engine.run engine;
  Alcotest.(check int) "duplicate completion counted once" 1 (Client.completions client);
  Alcotest.(check int) "metrics counted once" 1 (Metrics.completed metrics)

(* -- Executor ------------------------------------------------------------------ *)

let exec_config ?(watchdog = None) () =
  {
    Executor.node = 0;
    port = 2;
    rsrc = 0xF;
    noop_retry = Time.us 4;
    fn_model = Fn_model.default;
    scheduler = Addr.Switch;
    watchdog;
  }

let test_executor_pull_loop () =
  let engine, fabric, metrics = make_env () in
  let requests = ref 0 in
  let completions = ref [] in
  Fabric.register fabric Addr.Switch (fun env ->
      match env.Fabric.payload with
      | Message.Task_request { info; _ } ->
        incr requests;
        Alcotest.(check int) "request carries port" 2 info.exec_port;
        if !requests = 1 then
          Fabric.send fabric ~src:Addr.Switch ~dst:(Addr.Host 0)
            (Message.Task_assignment
               { task = busy_task 1; client = Addr.Host 9; port = 2 })
      | Message.Task_completion { task_id; rtrv_prio; _ } ->
        completions := (task_id.tid, rtrv_prio) :: !completions
      | _ -> ());
  let exec = Executor.create ~config:(exec_config ()) ~fabric ~metrics () in
  (* Route switch->host traffic to the executor directly. *)
  Fabric.register fabric (Addr.Host 0) (fun env -> Executor.deliver exec env.Fabric.payload);
  Executor.start exec;
  Engine.run ~until:(Time.us 100) engine;
  Alcotest.(check (list (pair int int))) "completed with piggyback prio" [ (1, 1) ]
    !completions;
  Alcotest.(check int) "one task executed" 1 (Executor.tasks_executed exec);
  Alcotest.(check int) "busy time recorded" (Time.us 10) (Executor.busy_time exec)

let test_executor_noop_backoff () =
  let engine, fabric, metrics = make_env () in
  let request_times = ref [] in
  Fabric.register fabric Addr.Switch (fun env ->
      match env.Fabric.payload with
      | Message.Task_request _ ->
        request_times := Engine.now engine :: !request_times;
        Fabric.send fabric ~src:Addr.Switch ~dst:(Addr.Host 0)
          (Message.Noop_assignment { port = 2 })
      | _ -> ());
  let exec = Executor.create ~config:(exec_config ()) ~fabric ~metrics () in
  Fabric.register fabric (Addr.Host 0) (fun env -> Executor.deliver exec env.Fabric.payload);
  Executor.start exec;
  Engine.run ~until:(Time.us 40) engine;
  let times = List.rev !request_times in
  Alcotest.(check bool) "several polls" true (List.length times >= 3);
  (* Consecutive polls are spaced by RTT + noop_retry (= 6 us here). *)
  (match times with
  | t0 :: t1 :: _ -> Alcotest.(check int) "poll period" (Time.us 6) (t1 - t0)
  | _ -> Alcotest.fail "unreachable");
  Alcotest.(check int) "nothing executed" 0 (Executor.tasks_executed exec)

type reply = Noop | Assign of Time.t | Silent

(* A scheduler that records when each pull request was sent and answers
   the [n]th pull it receives with [reply n]: a no-op, a task of the
   given service time, or silence.  A completion counts as a pull (it
   carries the next request) but is not recorded as one.  The executor
   has a 50 us watchdog. *)
let scripted_env reply =
  let engine, fabric, metrics = make_env () in
  let sent = ref [] and pulls = ref 0 in
  let answer () =
    let n = !pulls in
    incr pulls;
    let to_exec msg = Fabric.send fabric ~src:Addr.Switch ~dst:(Addr.Host 0) msg in
    match reply n with
    | Noop -> to_exec (Message.Noop_assignment { port = 2 })
    | Assign service ->
      let task =
        Task.make ~uid:0 ~jid:0 ~tid:n ~fn_id:Task.Fn.busy_loop ~fn_par:service ()
      in
      to_exec (Message.Task_assignment { task; client = Addr.Host 9; port = 2 })
    | Silent -> ()
  in
  Fabric.register fabric Addr.Switch (fun env ->
      match env.Fabric.payload with
      | Message.Task_request _ ->
        sent := env.Fabric.sent_at :: !sent;
        answer ()
      | Message.Task_completion _ -> answer ()
      | _ -> ());
  let exec =
    Executor.create ~config:(exec_config ~watchdog:(Some (Time.us 50)) ()) ~fabric ~metrics
      ()
  in
  Fabric.register fabric (Addr.Host 0) (fun env -> Executor.deliver exec env.Fabric.payload);
  (engine, fabric, metrics, exec, sent)

(* Answers the first [noops] pull requests with a no-op, then falls
   silent. *)
let watchdog_env ~noops =
  let engine, _, _, exec, sent = scripted_env (fun n -> if n < noops then Noop else Silent) in
  (engine, exec, fun () -> List.rev_map (fun t -> t / Time.us 1) !sent)

let test_executor_watchdog_resends () =
  let engine, exec, sent_us = watchdog_env ~noops:0 in
  Executor.start exec;
  Engine.run ~until:(Time.us 220) engine;
  Alcotest.(check (list int)) "one re-send per window" [ 0; 50; 100; 150; 200 ] (sent_us ())

(* The first request is answered: the no-op lands at 2 us and the
   executor re-polls 4 us later.  The first request's watchdog (due at
   50 us) must stay silent; only the re-poll's (due at 56 us) fires. *)
let test_executor_watchdog_quiet_after_reply () =
  let engine, exec, sent_us = watchdog_env ~noops:1 in
  Executor.start exec;
  Engine.run ~until:(Time.us 220) engine;
  Alcotest.(check (list int)) "windows restart at the re-poll" [ 0; 6; 56; 106; 156; 206 ]
    (sent_us ())

(* Crash at 60 us with the 50 us re-send's watchdog pending, restart at
   80 us: the stale watchdog (due at 100 us) stays silent, the restart's
   own pull arms the next window. *)
let test_executor_watchdog_crash_restart () =
  let engine, exec, sent_us = watchdog_env ~noops:0 in
  Executor.start exec;
  ignore (Engine.schedule engine ~after:(Time.us 60) (fun () -> Executor.crash exec));
  ignore (Engine.schedule engine ~after:(Time.us 80) (fun () -> Executor.restart exec));
  Engine.run ~until:(Time.us 240) engine;
  Alcotest.(check (list int)) "no re-send while down or from a stale window"
    [ 0; 50; 80; 130; 180; 230 ] (sent_us ())

(* Every pull request has a cause, and every unanswered window ends in
   a re-send.  Random scripts answer pulls with no-ops, tasks or
   silence, under random crashes, restarts and stops.  Soundness: each
   request is the start, a restart, a retry [noop_retry] after a no-op,
   or a re-send one window after the previous request with no delivery
   or crash in between, by an executor running no task.  Completeness:
   a window that passes after a request with no delivery, crash, stop
   or newer request, while no task runs, ends in a request at that
   instant.  Same-instant ties go the lenient way on both sides (open
   intervals for soundness, closed for completeness), since their order
   is the calendar's. *)
type fault = Crash | Restart | Stop

let prop_watchdog_instants =
  let window = Time.us 50 and noop_retry = Time.us 4 and horizon = Time.us 600 in
  let reply =
    QCheck.Gen.(
      frequency
        [
          (3, return Noop);
          (2, map (fun us -> Assign (Time.us us)) (int_range 0 120));
          (2, return Silent);
        ])
  in
  (* Whole microseconds make ties with the poll loop's instants likely. *)
  let instant =
    QCheck.Gen.(oneof [ map Time.us (int_range 0 500); int_range 0 (Time.us 500) ])
  in
  let fault = QCheck.Gen.oneofl [ Crash; Restart; Stop ] in
  let print_reply = function
    | Noop -> "noop"
    | Assign d -> Printf.sprintf "assign %dns" d
    | Silent -> "silent"
  in
  let print_fault (at, f) =
    let name = match f with Crash -> "crash" | Restart -> "restart" | Stop -> "stop" in
    Printf.sprintf "%s@%dns" name at
  in
  let arb =
    QCheck.make
      ~print:(fun (script, faults) ->
        Printf.sprintf "script [%s] faults [%s]"
          (String.concat "; " (List.map print_reply script))
          (String.concat "; " (List.map print_fault faults)))
      QCheck.Gen.(
        pair
          (list_size (int_range 0 30) reply)
          (list_size (int_range 0 6) (pair instant fault)))
  in
  QCheck.Test.make ~name:"executor watchdog re-sends exactly at unanswered windows"
    ~count:1000 arb (fun (script, faults) ->
      let script = Array.of_list script in
      let engine, fabric, metrics, exec, sent =
        scripted_env (fun n -> if n < Array.length script then script.(n) else Silent)
      in
      (* Deliveries that reach a running executor, and the no-ops among
         them. *)
      let deliveries = ref [] and noops = ref [] in
      Fabric.register fabric (Addr.Host 0) (fun env ->
          if not (Executor.stopped exec) then begin
            let now = Engine.now engine in
            deliveries := now :: !deliveries;
            match env.Fabric.payload with
            | Message.Noop_assignment _ -> noops := now :: !noops
            | _ -> ()
          end;
          Executor.deliver exec env.Fabric.payload);
      (* The executor is busy from a task's start to the next finish, or
         to the crash that loses the task. *)
      let running = ref None and runs = ref [] in
      let ended at =
        Option.iter (fun a -> runs := (a, at) :: !runs) !running;
        running := None
      in
      Metrics.observe metrics (function
        | Metrics.Started _ ->
          if Option.is_none !running then running := Some (Engine.now engine)
        | Metrics.Finished _ -> ended (Engine.now engine)
        | _ -> ());
      let crashes = ref [] and stops = ref [] and restarts = ref [] in
      List.iter
        (fun (at, f) ->
          ignore
            (Engine.schedule_at engine ~at (fun () ->
                 match f with
                 | Crash ->
                   crashes := at :: !crashes;
                   ended at;
                   Executor.crash exec
                 | Stop ->
                   stops := at :: !stops;
                   Executor.stop exec
                 | Restart ->
                   if Executor.stopped exec then restarts := at :: !restarts;
                   Executor.restart exec)))
        faults;
      Executor.start exec;
      Engine.run ~until:horizon engine;
      ended max_int;
      let requests = List.rev !sent in
      let within lo hi l = List.exists (fun x -> lo < x && x < hi) l in
      let within_closed lo hi l = List.exists (fun x -> lo <= x && x <= hi) l in
      let caused i s =
        let previous = List.filter (fun r -> r < s) requests in
        (i = 0 && s = 0)
        || List.mem s !restarts
        || List.exists (fun d -> d + noop_retry = s) !noops
        || previous <> []
           && List.fold_left Int.max 0 previous = s - window
           && not (within (s - window) s !deliveries || within (s - window) s !crashes)
           && not (List.exists (fun (a, b) -> a < s && s < b) !runs)
      in
      let honoured r =
        let at = r + window in
        (* A request is recorded when it reaches the scheduler, 1 us on. *)
        at + Time.us 1 > horizon
        || within r at requests
        || within_closed r at !deliveries
        || within_closed r at !crashes
        || within_closed r at !stops
        || List.exists (fun (a, b) -> a <= at && at <= b) !runs
        || List.mem at requests
      in
      let show () = String.concat " " (List.map string_of_int requests) in
      List.iteri
        (fun i s ->
          if not (caused i s) then
            QCheck.Test.fail_reportf "request at %dns has no cause; requests (ns): %s" s
              (show ()))
        requests;
      List.iter
        (fun r ->
          if not (honoured r) then
            QCheck.Test.fail_reportf
              "no re-send %dns after the request at %dns; requests (ns): %s" window r
              (show ()))
        requests;
      true)

let test_executor_stop () =
  let engine, fabric, metrics = make_env () in
  let requests = ref 0 in
  Fabric.register fabric Addr.Switch (fun _ -> incr requests);
  let exec = Executor.create ~config:(exec_config ()) ~fabric ~metrics () in
  Executor.stop exec;
  Executor.start exec;
  Engine.run engine;
  Alcotest.(check int) "stopped executor stays silent" 0 !requests

(* -- Worker demux ----------------------------------------------------------------- *)

let test_worker_routes_by_port () =
  let engine, fabric, metrics = make_env () in
  Fabric.register fabric Addr.Switch (fun _ -> ());
  let worker =
    Worker.create ~node:0 ~executors:4 ~fabric ~metrics
      ~make_config:(fun ~port -> { (exec_config ()) with port })
      ()
  in
  Fabric.send fabric ~src:Addr.Switch ~dst:(Addr.Host 0)
    (Message.Task_assignment { task = busy_task 1; client = Addr.Host 9; port = 2 });
  (* Out-of-range port must be ignored, not crash. *)
  Fabric.send fabric ~src:Addr.Switch ~dst:(Addr.Host 0)
    (Message.Task_assignment { task = busy_task 2; client = Addr.Host 9; port = 9 });
  Engine.run ~until:(Time.us 50) engine;
  Alcotest.(check int) "port 2 executed" 1 (Executor.tasks_executed (Worker.executor worker 2));
  Alcotest.(check int) "port 0 idle" 0 (Executor.tasks_executed (Worker.executor worker 0));
  Alcotest.(check int) "worker total" 1 (Worker.tasks_executed worker)

(* -- Metrics ---------------------------------------------------------------------- *)

let test_metrics_correlation () =
  let engine = Engine.create () in
  let metrics = Metrics.create engine in
  let id : Task.id = { uid = 1; jid = 2; tid = 3 } in
  let task = Task.make ~uid:1 ~jid:2 ~tid:3 ~fn_id:1 ~fn_par:1 () in
  Metrics.note_submit metrics id;
  ignore
    (Engine.schedule engine ~after:(Time.us 7) (fun () ->
         Metrics.note_exec_start metrics task ~node:0 ~port:0));
  Engine.run engine;
  let delays = Metrics.scheduling_delay metrics in
  Alcotest.(check int) "delay = start - submit" (Time.us 7)
    (Draconis_stats.Sampler.percentile delays 50.0);
  (* Re-submission does not reset the clock. *)
  Metrics.note_submit metrics id;
  Alcotest.(check int) "first submission wins" 1 (Metrics.submitted metrics)

(* A run with one fairness class shares [scheduling_delay] as that
   class's sampler; the first delay of a second class gives the first
   class the delays recorded before it, and the new delay only to its
   own class. *)
let test_metrics_delay_by_class () =
  let engine = Engine.create () in
  let metrics = Metrics.create engine in
  let start tid prio us =
    let task =
      Task.make ~uid:0 ~jid:0 ~tid ~tprops:(Task.Priority prio) ~fn_id:1 ~fn_par:1 ()
    in
    Metrics.note_submit metrics task.id;
    ignore
      (Engine.schedule engine ~after:(Time.us us) (fun () ->
           Metrics.note_exec_start metrics task ~node:0 ~port:0))
  in
  let classes () =
    List.map
      (fun (cls, s) -> (cls, Array.to_list (Draconis_stats.Sampler.sorted s)))
      (Metrics.delay_by_class metrics)
  in
  Alcotest.(check (list (pair int (list int)))) "no class yet" [] (classes ());
  start 1 1 3;
  start 2 1 5;
  Engine.run engine;
  Alcotest.(check (list (pair int (list int))))
    "one class" [ (1, [ Time.us 3; Time.us 5 ]) ] (classes ());
  Alcotest.(check bool) "one class shares the scheduling delay" true
    (snd (List.hd (Metrics.delay_by_class metrics)) == Metrics.scheduling_delay metrics);
  start 3 2 7;
  Engine.run engine;
  start 4 1 11;
  start 5 3 13;
  Engine.run engine;
  Alcotest.(check (list (pair int (list int))))
    "three classes"
    [ (1, [ Time.us 3; Time.us 5; Time.us 11 ]); (2, [ Time.us 7 ]); (3, [ Time.us 13 ]) ]
    (classes ());
  Alcotest.(check (list int)) "every delay once in the scheduling delay"
    (List.map Time.us [ 3; 5; 7; 11; 13 ])
    (Array.to_list (Draconis_stats.Sampler.sorted (Metrics.scheduling_delay metrics)))

let test_metrics_queueing_by_level () =
  let engine = Engine.create () in
  let metrics = Metrics.create engine in
  let id : Task.id = { uid = 0; jid = 0; tid = 1 } in
  Metrics.note_enqueue metrics id ~level:2;
  ignore
    (Engine.schedule engine ~after:(Time.us 30) (fun () ->
         Metrics.note_assign metrics id ~node:0 ~requested_at:(Time.us 25)));
  Engine.run engine;
  let q = Metrics.queueing_delay metrics ~level:2 in
  Alcotest.(check int) "queueing delay" (Time.us 30)
    (Draconis_stats.Sampler.percentile q 50.0);
  let g = Metrics.get_task_delay metrics ~level:2 in
  Alcotest.(check int) "get_task delay" (Time.us 5)
    (Draconis_stats.Sampler.percentile g 50.0);
  Alcotest.(check int) "other level empty" 0
    (Draconis_stats.Sampler.count (Metrics.queueing_delay metrics ~level:0))

(* -- Per-task record lifetime ------------------------------------------------ *)

let task_of ~us n =
  Task.make ~uid:0 ~jid:0 ~tid:n ~fn_id:Task.Fn.busy_loop ~fn_par:(Time.us us) ()

(* Fault free, every task is retired by its client, so a drained run
   leaves no per-task record behind. *)
let test_records_live_while_in_flight () =
  let cluster =
    Cluster.create
      { Cluster.default_config with workers = 2; executors_per_worker = 2; clients = 2 }
  in
  Cluster.start cluster;
  let engine = Cluster.engine cluster in
  for i = 0 to 19 do
    ignore
      (Engine.schedule engine ~after:(Time.us (10 * i)) (fun () ->
           ignore
             (Client.submit_job (Cluster.client cluster (i mod 2))
                (List.init 3 (task_of ~us:50)))))
  done;
  let m = Cluster.metrics cluster in
  Cluster.run cluster ~until:(Time.us 150);
  Alcotest.(check bool) "records live mid-run" true (Metrics.in_flight m > 0);
  Alcotest.(check bool) "drained" true (Cluster.run_until_drained cluster ~deadline:(Time.s 1));
  Alcotest.(check int) "every task completed" 60 (Metrics.completed m);
  Alcotest.(check int) "one delay sample per task" 60
    (Draconis_stats.Sampler.count (Metrics.scheduling_delay m));
  Alcotest.(check int) "no record left" 0 (Metrics.in_flight m);
  for i = 0 to 1 do
    Alcotest.(check int)
      (Printf.sprintf "client %d has nothing outstanding" i)
      0
      (Client.outstanding (Cluster.client cluster i))
  done

(* A completion lost to a cut window makes the client time out and
   resubmit.  With the only executor down, the copies queue up; the
   first to run completes the task, and a later, stale copy still
   starts.  That start must record a scheduling delay timed from the
   first submission, so a resubmitted task keeps its record. *)
let test_resubmitted_task_keeps_record () =
  let module Fault = Draconis_fault in
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
  Cluster.start cluster;
  (* Host 1 is the client: the completion forwarded at ~110 us is cut.
     Node 0 then stays down until 1 ms, while the client resubmits at
     300, 600 and 900 us.  The copies start at ~1.0, ~1.1 and ~1.2 ms;
     the first completes the task at ~1.1 ms. *)
  ignore
    (Fault.Injector.arm
       (Fault.Plan.of_string "partition@50us:hosts=1,dur=150us;crash@150us:node=0,down=850us")
       (Fault.Target.of_cluster cluster));
  let client = Cluster.client cluster 0 in
  ignore (Client.submit_job client [ task_of ~us:100 0 ]);
  Cluster.run cluster ~until:(Time.ms 3);
  let m = Cluster.metrics cluster in
  Alcotest.(check bool) "the completion was cut" true
    (Fabric.partition_dropped (Cluster.fabric cluster) > 0);
  Alcotest.(check int) "resubmitted up to the cap" 3 (Client.resubmitted client);
  Alcotest.(check int) "completed once" 1 (Client.completions client);
  Alcotest.(check int) "not abandoned" 0 (Client.abandoned client);
  Alcotest.(check int) "nothing outstanding" 0 (Client.outstanding client);
  let e2e = Draconis_stats.Sampler.max (Metrics.end_to_end_delay m) in
  let sched = Metrics.scheduling_delay m in
  Alcotest.(check int) "every copy's start sampled" 4 (Draconis_stats.Sampler.count sched);
  Alcotest.(check bool) "a stale copy started after completion, timed from submission"
    true
    (Draconis_stats.Sampler.max sched > e2e);
  Alcotest.(check int) "the resubmitted task keeps its record" 1 (Metrics.in_flight m)

let suite =
  [
    Alcotest.test_case "client splits large jobs" `Quick test_client_splits_large_jobs;
    Alcotest.test_case "client rewrites task ids" `Quick test_client_rewrites_ids;
    Alcotest.test_case "client queue-full retry" `Quick test_client_queue_full_retry;
    Alcotest.test_case "client dedups completions" `Quick test_client_completion_dedup;
    Alcotest.test_case "executor pull loop" `Quick test_executor_pull_loop;
    Alcotest.test_case "executor no-op backoff" `Quick test_executor_noop_backoff;
    Alcotest.test_case "executor watchdog" `Quick test_executor_watchdog_resends;
    Alcotest.test_case "executor watchdog quiet after a reply" `Quick
      test_executor_watchdog_quiet_after_reply;
    Alcotest.test_case "executor watchdog across crash and restart" `Quick
      test_executor_watchdog_crash_restart;
    QCheck_alcotest.to_alcotest prop_watchdog_instants;
    Alcotest.test_case "executor stop" `Quick test_executor_stop;
    Alcotest.test_case "worker routes by port" `Quick test_worker_routes_by_port;
    Alcotest.test_case "metrics correlation" `Quick test_metrics_correlation;
    Alcotest.test_case "metrics per-level queueing" `Quick test_metrics_queueing_by_level;
    Alcotest.test_case "metrics delay by class" `Quick test_metrics_delay_by_class;
    Alcotest.test_case "task records live only while in flight" `Quick
      test_records_live_while_in_flight;
    Alcotest.test_case "resubmitted task keeps its record" `Quick
      test_resubmitted_task_keeps_record;
  ]
