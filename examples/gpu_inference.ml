(* Resource-aware scheduling for a heterogeneous inference fleet
   (paper sec 5.2).

   Half the worker nodes carry accelerators.  The workload mixes plain
   CPU pre-processing tasks with GPU inference tasks; the resource-aware
   policy must keep GPU tasks off CPU-only nodes (a hard constraint)
   while still letting CPU tasks soak up idle accelerator nodes.

   Run with:  dune exec examples/gpu_inference.exe *)

open Draconis_sim
open Draconis_proto
open Draconis

let cpu = 1 (* resource bit: general-purpose core *)
let gpu = 2 (* resource bit: accelerator *)
let workers = 8
let gpu_nodes = [ 4; 5; 6; 7 ]

let () =
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        workers;
        executors_per_worker = 8;
        clients = 1;
        policy_of = (fun _ -> Policy.Resource_aware { max_swaps = 8 });
        rsrc_of_node = (fun node -> if List.mem node gpu_nodes then cpu lor gpu else cpu);
      }
  in
  Cluster.start cluster;
  (* Count placements per class, observing the task starts the metrics
     record. *)
  let gpu_tasks_on_cpu_nodes = ref 0 in
  let starts_per_node = Array.make workers 0 in
  Metrics.observe (Cluster.metrics cluster) (function
    | Metrics.Started { task; node; port = _ } ->
      starts_per_node.(node) <- starts_per_node.(node) + 1;
      if Task.required_resources task land gpu <> 0 && not (List.mem node gpu_nodes) then
        incr gpu_tasks_on_cpu_nodes
    | _ -> ());
  let client = Cluster.client cluster 0 in
  let engine = Cluster.engine cluster in
  let rng = Rng.create ~seed:31 in
  (* 30% GPU inference (400us on the accelerator), 70% CPU prep (120us). *)
  for i = 0 to 9_999 do
    ignore
      (Engine.schedule engine ~after:(Time.us (4 * i)) (fun () ->
           let is_gpu = Rng.float rng < 0.3 in
           let tprops = Task.Resources (if is_gpu then gpu else cpu) in
           let fn_par = Time.us (if is_gpu then 400 else 120) in
           ignore
             (Client.submit_job client
                [ Task.make ~uid:0 ~jid:0 ~tid:0 ~tprops ~fn_id:Task.Fn.busy_loop ~fn_par () ])))
  done;
  Cluster.run cluster ~until:(Time.ms 50);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 4) in
  let m = Cluster.metrics cluster in
  Printf.printf "drained: %b — %d/%d tasks completed, %d started, %d delay samples\n"
    drained (Metrics.completed m) (Metrics.submitted m) (Metrics.started m)
    (Draconis_stats.Sampler.count (Metrics.scheduling_delay m));
  Printf.printf "GPU tasks placed on CPU-only nodes: %d (must be 0)\n\n"
    !gpu_tasks_on_cpu_nodes;
  Printf.printf "tasks started per node (nodes 4-7 have accelerators):\n";
  Array.iteri
    (fun node count ->
      Printf.printf "  node %d%s: %d\n" node
        (if List.mem node gpu_nodes then " [GPU]" else "      ")
        count)
    starts_per_node;
  Printf.printf "\nswitch swaps performed: %d, tasks re-inserted: %d\n"
    (Switch_program.swaps (Cluster.program cluster))
    (Switch_program.resubmissions (Cluster.program cluster))
