open Draconis_sim
open Draconis_stats
open Draconis_workload
open Draconis_fault
module CS = Draconis_baselines.Central_server

let kind = Synthetic.Fixed_500us

(* Only systems with a client timeout can recover from faults; sparrow
   (no timeout path) is excluded.  The fault targets mirror each
   system's real capability surface: switch fail-over and fabric faults
   everywhere, executor crash/straggler only where core executors run. *)
let systems ~timeout spec =
  [
    (fun () ->
      let cluster, running = Systems.draconis_cluster ~client_timeout:timeout spec in
      (running, Target.of_cluster ~name:running.Systems.name cluster));
    (fun () ->
      let server, running =
        Systems.central_server_system ~client_timeout:timeout CS.Dpdk spec
      in
      (running, Target.of_central_server ~name:running.Systems.name server));
    (fun () ->
      let server, running =
        Systems.central_server_system ~client_timeout:timeout CS.Socket spec
      in
      (running, Target.of_central_server ~name:running.Systems.name server));
    (fun () ->
      let r2p2, running = Systems.r2p2_system ~k:3 ~client_timeout:timeout spec in
      (running, Target.of_r2p2 ~name:running.Systems.name r2p2));
    (fun () ->
      let racksched, running = Systems.racksched_system ~client_timeout:timeout spec in
      (running, Target.of_racksched ~name:running.Systems.name racksched));
  ]

(* Increasing fault intensity: nothing, a mid-run scheduler fail-over,
   fail-over plus a correlated loss burst, and all of it plus a
   two-worker partition while the standby is still catching up. *)
let plans ~horizon ~quick =
  let mid = horizon / 2 in
  let base =
    [
      ("none", Plan.empty);
      ("failover", Plan.create [ { Plan.at = mid; event = Plan.Switch_failover } ]);
    ]
  in
  if quick then base
  else
    base
    @ [
        ( "failover+burst",
          Plan.create
            [
              {
                Plan.at = horizon / 4;
                event = Plan.Loss_burst { duration = horizon / 8; loss = 0.5 };
              };
              { Plan.at = mid; event = Plan.Switch_failover };
            ] );
        ( "failover+burst+partition",
          Plan.create
            [
              {
                Plan.at = horizon / 4;
                event = Plan.Loss_burst { duration = horizon / 8; loss = 0.5 };
              };
              { Plan.at = mid; event = Plan.Switch_failover };
              {
                Plan.at = horizon * 5 / 8;
                event = Plan.Partition { hosts = [ 0; 1 ]; duration = horizon / 8 };
              };
            ] );
      ]

let run ?(quick = false) () =
  let spec = Systems.default_spec in
  let executors = spec.workers * spec.executors_per_worker in
  (* High enough utilization that queues hold real state when the
     scheduler dies, low enough that every system can still drain. *)
  let load = 0.8 *. Exp_common.capacity_tps kind ~executors in
  let horizon = if quick then Time.ms 10 else Time.ms 40 in
  let timeout = Time.ms 1 in
  let plans = plans ~horizon ~quick in
  let table =
    Table.create
      ~columns:
        [ "system"; "faults"; "p99 (us)"; "completed"; "lost"; "recovery (us)";
          "timeouts"; "resub"; "aband"; "avail"; "drained" ]
  in
  (* Same pooling discipline as fig5a: one self-contained closure per
     (system x plan) grid point, results merged in submission order, so
     the table is byte-identical for any --jobs. *)
  let grid =
    List.concat_map
      (fun make -> List.map (fun (pname, plan) -> (make, pname, plan)) plans)
      (systems ~timeout spec)
  in
  let rows =
    Pool.map
      (List.map
         (fun (make, _, plan) () ->
           let running, target = make () in
           let injector = Injector.arm plan target in
           let driver = Exp_common.synthetic_driver kind ~rate_tps:load ~horizon in
           let outcome = Runner.run running ~driver ~load_tps:load ~horizon () in
           let report =
             Recovery.measure ~metrics:running.Systems.metrics ~injector
               ~until:horizon ()
           in
           (outcome, report))
         grid)
  in
  Report.add_outcomes (List.map fst rows);
  List.iter2
    (fun (_, pname, _) ((o : Runner.outcome), (r : Recovery.report)) ->
      Table.add_row table
        [
          o.system;
          pname;
          Exp_common.us o.sched_p99;
          Printf.sprintf "%d/%d" o.completed o.submitted;
          string_of_int r.queued_lost;
          (match r.recovery with None -> "-" | Some t -> Exp_common.us t);
          string_of_int r.timeouts;
          string_of_int r.resubmitted;
          string_of_int r.abandoned;
          Printf.sprintf "%.0f%%" (100.0 *. r.availability);
          Exp_common.yn o.drained;
        ])
    grid rows;
  Table.print ~title:"Fig F: fault injection - failover, burst, partition recovery"
    table
