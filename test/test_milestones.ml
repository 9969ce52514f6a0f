(* The typed milestone stream ({!Draconis.Metrics.observe}): an observer
   adds to the samples, never replaces them; on a 2-shard cluster it
   adds no post or event and sees what one shard sees; and one consumer
   of the stream checks what every scheduler's executors and clients
   must honour, on quick drained runs of every system. *)

open Draconis_sim
open Draconis_proto
open Draconis
open Draconis_workload
module H = Draconis_harness

(* -- the consumer ------------------------------------------------------------ *)

(* Checks three things over one run's milestones:
   - no executor slot runs two tasks at once: on a named executor
     ([port >= 0]) Started and Finished alternate, and a node whose
     executors are a pool ([port = -1]: RackSched's node worker,
     Sparrow's worker) never runs more tasks than it has executors;
   - each task completes at most once at its client;
   - a drained run completes as many tasks as it submitted.
   Fault-free runs only: a crash loses a started task's Finished. *)
module Check = struct
  type t = {
    executors : int;  (* per node: the capacity of a pooled node *)
    running : (int * int, int) Hashtbl.t;  (* (node, port) -> tasks running *)
    completed : unit Task.Tbl.t;
    mutable submitted : int;
    mutable starts : int;
    mutable overlaps : int;  (* a start on a full slot, a finish on an empty one *)
    mutable repeats : int;  (* a second completion of one task *)
  }

  let create ~executors =
    {
      executors;
      running = Hashtbl.create 64;
      completed = Task.Tbl.create 1024;
      submitted = 0;
      starts = 0;
      overlaps = 0;
      repeats = 0;
    }

  let running t slot = Option.value ~default:0 (Hashtbl.find_opt t.running slot)

  let observe t : Metrics.milestone -> unit = function
    | Started { node; port; _ } ->
      t.starts <- t.starts + 1;
      let slot = (node, port) in
      let n = running t slot in
      if n >= (if port < 0 then t.executors else 1) then t.overlaps <- t.overlaps + 1;
      Hashtbl.replace t.running slot (n + 1)
    | Finished { node; port; _ } ->
      let slot = (node, port) in
      let n = running t slot in
      if n = 0 then t.overlaps <- t.overlaps + 1
      else Hashtbl.replace t.running slot (n - 1)
    | Submitted _ -> t.submitted <- t.submitted + 1
    | Completed id ->
      if Task.Tbl.mem t.completed id then t.repeats <- t.repeats + 1
      else Task.Tbl.replace t.completed id ()
    | _ -> ()

  (* Submitted tasks a drained run did not complete, or completions
     beyond them. *)
  let unbalanced t = abs (t.submitted - Task.Tbl.length t.completed)

  let install (system : H.Systems.running) ~executors =
    let t = create ~executors in
    Metrics.observe system.metrics (observe t);
    t
end

let spec = { H.Systems.workers = 4; executors_per_worker = 4; clients = 2; seed = 5 }
let horizon = Time.ms 5

(* Half the executors' capacity of 100 us tasks, offered as Poisson
   single-task jobs whose n-th task carries [tprops n]. *)
let rate_tps =
  let executors = spec.workers * spec.executors_per_worker in
  0.5 *. H.Exp_common.capacity_tps Synthetic.Fixed_100us ~executors

let driver ?(tprops = fun _ -> Task.No_props) () : H.Runner.driver =
 fun engine rng ~submit ->
  let n = ref 0 in
  H.Exp_common.synthetic_driver Synthetic.Fixed_100us ~rate_tps ~horizon engine rng
    ~submit:(fun tasks ->
      incr n;
      submit (List.map (fun (task : Task.t) -> { task with tprops = tprops !n }) tasks))

let run ?tprops system =
  let check = Check.install system ~executors:spec.executors_per_worker in
  let o = H.Runner.run system ~driver:(driver ?tprops ()) ~load_tps:rate_tps ~horizon () in
  (o, check)

let checked ?tprops name system =
  let o, check = run ?tprops system in
  Alcotest.(check bool) (name ^ ": drained") true o.drained;
  Alcotest.(check bool) (name ^ ": work happened") true (o.completed > 100);
  Alcotest.(check bool) (name ^ ": every start seen") true
    (check.Check.starts >= o.completed);
  Alcotest.(check int) (name ^ ": no slot runs two tasks") 0 check.overlaps;
  Alcotest.(check int) (name ^ ": no task completes twice") 0 check.repeats;
  Alcotest.(check int) (name ^ ": submitted = completed") 0 (Check.unbalanced check)

let with_jobs n f =
  let saved = H.Pool.jobs () in
  H.Pool.set_jobs n;
  Fun.protect ~finally:(fun () -> H.Pool.set_jobs saved) f

(* Each Draconis policy with tasks that exercise it: two priority
   levels, a resource every other node lacks, relative deadlines on a
   32-slot PIFO store (a pop scans it a row per traversal). *)
let check_draconis ?shards () =
  let checked ?rsrc_of_node ?(queue_capacity = 1024) ~tprops name policy =
    checked ~tprops
      (name ^ if Option.is_some shards then " shards=2" else "")
      (H.Systems.draconis ?rsrc_of_node ?shards ~queue_capacity
         ~policy_of:(fun _ -> policy) spec)
  in
  checked "fcfs" Policy.Fcfs ~tprops:(fun _ -> Task.No_props);
  checked "priority" (Policy.Priority { levels = 2 }) ~tprops:(fun n ->
      Task.Priority (1 + (n mod 2)));
  checked "resource-aware" (Policy.Resource_aware { max_swaps = 8 })
    ~rsrc_of_node:(fun node -> if node mod 2 = 0 then 3 else 1)
    ~tprops:(fun n -> Task.Resources (if n mod 3 = 0 then 2 else 1));
  checked "edf" (Policy.Edf { default_deadline = Time.us 800 }) ~queue_capacity:32
    ~tprops:(fun n -> Task.Deadline (Time.us (200 + (100 * (n mod 5)))))

let test_draconis_one_engine () = check_draconis ()

(* On 2 lanes, so the switch LP and the host LP note from two domains. *)
let test_draconis_two_shards () = with_jobs 2 (fun () -> check_draconis ~shards:2 ())

let test_baselines () =
  checked "r2p2-1" (H.Systems.r2p2 ~k:1 spec);
  checked "r2p2-3" (H.Systems.r2p2 ~k:3 spec);
  checked "racksched fcfs"
    (H.Systems.racksched ~intra:Draconis_baselines.Node_worker.Fcfs spec);
  checked "sparrow" (H.Systems.sparrow ~schedulers:1 spec)

(* A central server answers an executor's watchdog re-send and the
   request it re-sends alike, so past saturation a busy executor can
   take a second task; the slot count is not asserted here. *)
let test_central_server () =
  let system = H.Systems.central_server Draconis_baselines.Central_server.Socket spec in
  let o, check = run system in
  Alcotest.(check bool) "drained" true o.drained;
  Alcotest.(check int) "no task completes twice" 0 check.Check.repeats;
  Alcotest.(check int) "submitted = completed" 0 (Check.unbalanced check)

(* -- the observer adds to the samples ----------------------------------------- *)

(* An observer on a small cluster leaves every start sampled: each
   completed task was started, counted and given a scheduling delay. *)
let test_observer_keeps_samples () =
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        workers = 2;
        executors_per_worker = 4;
        clients = 1;
        queue_capacity = 1024;
      }
  in
  let starts = ref 0 in
  let m = Cluster.metrics cluster in
  Metrics.observe m (function Metrics.Started _ -> incr starts | _ -> ());
  Cluster.start cluster;
  for i = 0 to 49 do
    ignore
      (Engine.schedule (Cluster.engine cluster) ~after:(Time.us (50 * i)) (fun () ->
           ignore
             (Client.submit_job (Cluster.client cluster 0)
                (List.init 2 (fun tid ->
                     Task.make ~uid:0 ~jid:0 ~tid ~fn_id:Task.Fn.busy_loop
                       ~fn_par:(Time.us 100) ())))))
  done;
  Cluster.run cluster ~until:(Time.ms 3);
  Alcotest.(check bool) "drained" true
    (Cluster.run_until_drained cluster ~deadline:(Time.s 1));
  Alcotest.(check int) "completed" 100 (Metrics.completed m);
  Alcotest.(check int) "started = completed" (Metrics.completed m) (Metrics.started m);
  Alcotest.(check int) "a delay sample per completion" (Metrics.completed m)
    (Draconis_stats.Sampler.count (Metrics.scheduling_delay m));
  Alcotest.(check int) "the observer saw every start" (Metrics.completed m) !starts

let test_observe_once () =
  let m = Metrics.create (Engine.create ()) in
  Metrics.observe m ignore;
  Alcotest.check_raises "a second observer"
    (Invalid_argument "Metrics.observe: the metrics already have an observer") (fun () ->
      Metrics.observe m ignore)

(* -- observed sharded runs ------------------------------------------------------ *)

let digest (o : H.Runner.outcome) =
  [
    ("submitted", o.submitted);
    ("started", o.started);
    ("completed", o.completed);
    ("p50", o.sched_p50);
    ("p99", o.sched_p99);
    ("swaps", o.swaps);
    ("recirculations", o.recirculations);
    ("repair_flags", o.repair_flags);
    ("events", o.events);
  ]

(* One run of a sharded cluster: its outcome digest, the cross-LP posts
   its LPs received, and, when [observed], the sorted milestones. *)
let sharded_run ~observed shards =
  let cluster, system = H.Systems.draconis_cluster ~racks:2 ~shards spec in
  let seen = ref [] in
  if observed then Metrics.observe system.metrics (fun m -> seen := m :: !seen);
  let o = H.Runner.run system ~driver:(driver ()) ~load_tps:rate_tps ~horizon () in
  let posted =
    match Cluster.sync cluster with
    | Some sync -> Array.fold_left (fun acc lp -> acc + Lp.posted lp) 0 (Sync.lps sync)
    | None -> assert false
  in
  (digest o @ [ ("posted", posted) ], List.sort compare !seen)

let test_observed_two_shards () =
  with_jobs 2 (fun () ->
      let plain, _ = sharded_run ~observed:false 2 in
      let outcome, milestones = sharded_run ~observed:true 2 in
      Alcotest.(check (list (pair string int)))
        "observing adds no post or event: the outcome is the unobserved one" plain
        outcome;
      Alcotest.(check bool) "milestones seen" true (List.length milestones > 1000);
      let _, one_shard = sharded_run ~observed:true 1 in
      Alcotest.(check bool) "the multiset on 1 shard" true (one_shard = milestones);
      for run = 1 to 3 do
        let _, again = sharded_run ~observed:true 2 in
        Alcotest.(check bool) (Printf.sprintf "repeat %d on 2 lanes" run) true
          (again = milestones)
      done)

let suite =
  [
    Alcotest.test_case "observer keeps every start sampled" `Quick
      test_observer_keeps_samples;
    Alcotest.test_case "one observer per metrics" `Quick test_observe_once;
    Alcotest.test_case "checks: draconis policies, one engine" `Quick
      test_draconis_one_engine;
    Alcotest.test_case "checks: draconis policies, 2 shards" `Quick
      test_draconis_two_shards;
    Alcotest.test_case "checks: r2p2, racksched, sparrow" `Quick test_baselines;
    Alcotest.test_case "checks: central server completions" `Quick test_central_server;
    Alcotest.test_case "observed 2-shard runs: no post, same multiset" `Quick
      test_observed_two_shards;
  ]
