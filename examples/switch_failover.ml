(* Switch fail-over (paper sec 3.3): the scheduler dies mid-run, a
   standby takes over with an empty pipeline, and clients recover every
   queued-but-lost task through timeouts and resubmission.

   Run with:  dune exec examples/switch_failover.exe *)

open Draconis_sim
open Draconis_proto
open Draconis

let () =
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        workers = 4;
        executors_per_worker = 4;
        clients = 1;
        client_timeout = Some (Time.ms 2);
      }
  in
  Cluster.start cluster;
  let client = Cluster.client cluster 0 in
  let engine = Cluster.engine cluster in
  (* Offer ~1.5x the cluster's capacity so the switch queue holds a
     real backlog worth losing. *)
  for i = 0 to 2_999 do
    ignore
      (Engine.schedule engine ~after:(Time.us (8 * i)) (fun () ->
           ignore
             (Client.submit_job client
                [
                  Task.make ~uid:0 ~jid:0 ~tid:i ~fn_id:Task.Fn.busy_loop
                    ~fn_par:(Time.us 200) ();
                ])))
  done;
  (* The switch fails 10 ms in. *)
  let lost = ref 0 in
  ignore
    (Engine.schedule engine ~after:(Time.ms 10) (fun () ->
         lost := Cluster.fail_over_switch cluster));
  Cluster.run cluster ~until:(Time.ms 40);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 5) in
  let m = Cluster.metrics cluster in
  Printf.printf "switch failed over at t=10ms, losing %d queued tasks\n" !lost;
  Printf.printf "client timeouts fired: %d (each resubmits the lost task)\n"
    (Client.resubmitted client + Client.abandoned client);
  Printf.printf "final: %d/%d tasks completed, drained=%b\n" (Metrics.completed m)
    (Metrics.submitted m) drained;
  let delays = Metrics.scheduling_delay m in
  Printf.printf
    "scheduling delay p50 %.1f us vs p99.9 %.1f us — the tail carries the\n\
     timeout-resubmission spike, exactly the paper's fault-recovery cost\n"
    (float_of_int (Draconis_stats.Sampler.percentile delays 50.0) /. 1e3)
    (float_of_int (Draconis_stats.Sampler.percentile delays 99.9) /. 1e3)
