open Draconis_sim
open Draconis_stats
open Draconis_workload
module CS = Draconis_baselines.Central_server

let run ?(quick = false) () =
  let spec = Systems.default_spec in
  let executors = spec.workers * spec.executors_per_worker in
  let utilizations = if quick then [ 0.5 ] else [ 0.3; 0.5; 0.7; 0.85; 0.94 ] in
  let kinds = if quick then [ Synthetic.Fixed_100us ] else Synthetic.all in
  List.iter
    (fun kind ->
      let loads = Exp_common.loads kind ~executors ~utilizations in
      let table =
        Table.create
          ~columns:
            ("system"
            :: List.map (fun u -> Printf.sprintf "p99@%.0f%% (us)" (100.0 *. u))
                 utilizations)
      in
      let systems =
        [
          (fun () -> Systems.draconis spec);
          (fun () -> Systems.racksched spec);
          (fun () -> Systems.r2p2 ~k:3 ~client_timeout:(Time.ms 2) spec);
          (fun () -> Systems.central_server CS.Dpdk spec);
        ]
      in
      let outcomes =
        Pool.map
          (List.concat_map
             (fun make ->
               List.map
                 (fun load () ->
                   let system = make () in
                   let horizon =
                     Exp_common.horizon_for ~rate_tps:load
                       ~target_tasks:(if quick then 4_000 else 20_000)
                       ()
                   in
                   let driver =
                     Exp_common.synthetic_driver kind ~rate_tps:load ~horizon
                   in
                   Runner.run system ~driver ~load_tps:load ~horizon ())
                 loads)
             systems)
      in
      Report.add_outcomes outcomes;
      List.iter
        (fun row ->
          match row with
          | [] -> ()
          | (first : Runner.outcome) :: _ ->
            Table.add_row table
              (first.system :: List.map (fun (o : Runner.outcome) -> Exp_common.us o.sched_p99) row))
        (Exp_common.chunk (List.length loads) outcomes);
      Table.print
        ~title:
          (Printf.sprintf "Fig 6 (%s): p99 scheduling delay vs utilization"
             (Synthetic.name kind))
        table;
      Exp_common.print_phase_breakdown
        ~title:
          (Printf.sprintf "Fig 6 (%s): per-phase delay decomposition (attributed runs)"
             (Synthetic.name kind))
        outcomes)
    kinds
