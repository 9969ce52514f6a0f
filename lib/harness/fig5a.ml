open Draconis_sim
open Draconis_stats
open Draconis_workload
module CS = Draconis_baselines.Central_server

let kind = Synthetic.Fixed_500us

let systems ~timeout spec =
  [
    (fun () -> Systems.draconis spec);
    (fun () -> Systems.racksched spec);
    (fun () -> Systems.r2p2 ~k:3 ~client_timeout:timeout spec);
    (fun () -> Systems.sparrow ~schedulers:1 spec);
    (fun () -> Systems.sparrow ~schedulers:2 spec);
    (fun () -> Systems.central_server CS.Dpdk spec);
    (fun () -> Systems.central_server CS.Socket spec);
  ]

let run ?(quick = false) () =
  let spec = Systems.default_spec in
  let executors = spec.workers * spec.executors_per_worker in
  let utilizations =
    if quick then [ 0.3; 0.7 ] else [ 0.1; 0.3; 0.5; 0.62; 0.78; 0.87; 0.94 ]
  in
  let loads = Exp_common.loads kind ~executors ~utilizations in
  let timeout = Time.ms 1 in
  let table =
    Table.create
      ~columns:
        [ "system"; "load (tps)"; "util"; "p50 (us)"; "p99 (us)"; "completed";
          "timeouts"; "drained" ]
  in
  (* One self-contained closure per (system x load) grid point: the
     system (own engine) and the seeded workload RNG are both created
     inside the closure, so grid points can run on any pool worker.
     Rows come back in submission order, keeping the table bit-identical
     to the sequential sweep. *)
  let grid =
    List.concat_map
      (fun make ->
        List.map2 (fun load util -> (make, load, util)) loads utilizations)
      (systems ~timeout spec)
  in
  let rows =
    Pool.map
      (List.map
         (fun (make, load, _) () ->
           let system = make () in
           let horizon =
             Exp_common.horizon_for ~rate_tps:load
               ~target_tasks:(if quick then 5_000 else 25_000)
               ()
           in
           let driver = Exp_common.synthetic_driver kind ~rate_tps:load ~horizon in
           Runner.run system ~driver ~load_tps:load ~horizon ())
         grid)
  in
  Report.add_outcomes rows;
  List.iter2
    (fun (_, load, util) (o : Runner.outcome) ->
      Table.add_row table
        [
          o.system;
          Printf.sprintf "%.0fk" (load /. 1e3);
          Printf.sprintf "%.0f%%" (100.0 *. util);
          Exp_common.us o.sched_p50;
          Exp_common.us o.sched_p99;
          Printf.sprintf "%d/%d" o.completed o.submitted;
          string_of_int o.timeouts;
          Exp_common.yn o.drained;
        ])
    grid rows;
  Table.print ~title:"Fig 5a: load vs p99 scheduling delay, 500us tasks" table;
  Exp_common.print_phase_breakdown
    ~title:"Fig 5a: per-phase delay decomposition (attributed runs)" rows
