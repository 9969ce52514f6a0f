open Draconis_sim
open Draconis_stats
open Draconis_workload

let kind = Synthetic.Fixed_500us

let measure system ~load ~quick =
  let horizon =
    Exp_common.horizon_for ~rate_tps:load
      ~target_tasks:(if quick then 4_000 else 15_000)
      ()
  in
  let driver = Exp_common.synthetic_driver kind ~rate_tps:load ~horizon in
  Runner.run system ~driver ~load_tps:load ~horizon ()

(* Pool a (row x load) grid of self-contained closures and hand the flat
   outcome list back as rows of [List.length loads] cells. *)
let pooled_rows makes ~loads ~quick =
  let outcomes =
    Pool.map
      (List.concat_map
         (fun make ->
           List.map (fun load () -> measure (make ()) ~load ~quick) loads)
         makes)
  in
  Report.add_outcomes outcomes;
  Exp_common.chunk (List.length loads) outcomes

(* Pull (Draconis) vs push at increasing placement accuracy. *)
let pull_vs_push ~quick =
  let spec = Systems.default_spec in
  let executors = spec.workers * spec.executors_per_worker in
  let utilizations = if quick then [ 0.7 ] else [ 0.5; 0.7; 0.9 ] in
  let loads = Exp_common.loads kind ~executors ~utilizations in
  let table =
    Table.create
      ~columns:
        ("system"
        :: List.map (fun u -> Printf.sprintf "p99@%.0f%% (us)" (100.0 *. u)) utilizations)
  in
  let contenders =
    [
      (fun () -> Systems.draconis spec);
      (fun () -> Systems.racksched ~samples:1 spec);
      (fun () -> Systems.racksched ~samples:2 spec);
      (fun () -> Systems.racksched ~samples:spec.workers spec);
    ]
  in
  List.iter
    (fun row ->
      match row with
      | [] -> ()
      | (first : Runner.outcome) :: _ ->
        Table.add_row table
          (first.system
          :: List.map (fun (o : Runner.outcome) -> Exp_common.us o.sched_p99) row))
    (pooled_rows contenders ~loads ~quick);
  Table.print
    ~title:"Ablation: pull-based central queue vs push-based placement (500us tasks)"
    table

(* Cost of delayed pointer correction: repair packets and recirculation
   across load. *)
let correction_cost ~quick =
  let spec = Systems.default_spec in
  let executors = spec.workers * spec.executors_per_worker in
  let utilizations = if quick then [ 0.7 ] else [ 0.3; 0.6; 0.9 ] in
  let loads = Exp_common.loads kind ~executors ~utilizations in
  let table =
    Table.create
      ~columns:
        [ "util"; "p99 (us)"; "repairs launched"; "repairs / task";
          "recirculated (% pkts)" ]
  in
  let rows =
    Pool.map (List.map (fun load () -> measure (Systems.draconis spec) ~load ~quick) loads)
  in
  Report.add_outcomes rows;
  List.iter2
    (fun util (o : Runner.outcome) ->
      Table.add_row table
        [
          Printf.sprintf "%.0f%%" (100.0 *. util);
          Exp_common.us o.sched_p99;
          string_of_int o.repair_flags;
          Printf.sprintf "%.5f"
            (float_of_int o.repair_flags /. float_of_int (max 1 o.submitted));
          Exp_common.pct o.recirc_fraction;
        ])
    utilizations rows;
  Table.print
    ~title:
      "Ablation: delayed-pointer-correction overhead (repair packets are the price of the one-access rule)"
    table

(* R2P2-1 drops vs recirculation-port bandwidth. *)
let recirc_bandwidth ~quick =
  let spec = Systems.default_spec in
  let executors = spec.workers * spec.executors_per_worker in
  let load = List.hd (Exp_common.loads kind ~executors ~utilizations:[ 0.93 ]) in
  let slots = if quick then [ 100 ] else [ 400; 200; 100; 50; 25 ] in
  let table =
    Table.create
      ~columns:[ "recirc rate (Mpps)"; "dropped packets"; "p99 (us)"; "timeouts" ]
  in
  let rows =
    Pool.map
      (List.map
         (fun slot () ->
           let system =
             Systems.r2p2 ~k:1 ~client_timeout:(Time.ms 1)
               ~pipeline_config:
                 {
                   Draconis_p4.Pipeline.default_config with
                   recirc_slot = Time.ns slot;
                 }
               spec
           in
           measure system ~load ~quick)
         slots)
  in
  Report.add_outcomes rows;
  List.iter2
    (fun slot (o : Runner.outcome) ->
      Table.add_row table
        [
          Printf.sprintf "%.0f" (1e3 /. float_of_int slot);
          string_of_int o.recirc_drops;
          Exp_common.us o.sched_p99;
          string_of_int o.timeouts;
        ])
    slots rows;
  Table.print
    ~title:"Ablation: R2P2-1 task drops vs recirculation bandwidth (93% load)"
    table

(* Intra-node policy on a heavy-tailed workload: RackSched's cFCFS
   suffers head-of-line blocking behind long tasks; processor sharing
   (the paper's Shinjuku configuration) preempts them. *)
let intra_node_policy ~quick =
  let spec = Systems.default_spec in
  let kind = Synthetic.Exponential_250us in
  let executors = spec.workers * spec.executors_per_worker in
  let load = List.hd (Exp_common.loads kind ~executors ~utilizations:[ 0.8 ]) in
  let table = Table.create ~columns:[ "intra-node policy"; "p50 (us)"; "p99 (us)" ] in
  let configs =
    [
      ("cFCFS (no preemption)", Draconis_baselines.Node_worker.Fcfs);
      ( "processor sharing (25us quantum)",
        Draconis_baselines.Node_worker.Processor_sharing
          { quantum = Time.us 25; overhead = Time.us 1 } );
    ]
  in
  let rows =
    Pool.map
      (List.map
         (fun (_, intra) () ->
           let system = Systems.racksched ~intra spec in
           let horizon =
             Exp_common.horizon_for ~rate_tps:load
               ~target_tasks:(if quick then 4_000 else 15_000)
               ()
           in
           let driver = Exp_common.synthetic_driver kind ~rate_tps:load ~horizon in
           Runner.run system ~driver ~load_tps:load ~horizon ())
         configs)
  in
  Report.add_outcomes rows;
  List.iter2
    (fun (label, _) (o : Runner.outcome) ->
      Table.add_row table
        [ label; Exp_common.us o.sched_p50; Exp_common.us o.sched_p99 ])
    configs rows;
  Table.print
    ~title:
      "Ablation: RackSched intra-node policy on a heavy-tailed workload (exp-250us, 80% load)"
    table

(* Work stealing on R2P2-3: the paper (sec 2.2.1) argues stealing could
   address node-level blocking but costs coordination; measure both. *)
let work_stealing ~quick =
  let spec = Systems.default_spec in
  let executors = spec.workers * spec.executors_per_worker in
  let utilizations = if quick then [ 0.5 ] else [ 0.35; 0.5; 0.7 ] in
  let loads = Exp_common.loads kind ~executors ~utilizations in
  let table =
    Table.create
      ~columns:
        ("system"
        :: List.map (fun u -> Printf.sprintf "p99@%.0f%% (us)" (100.0 *. u)) utilizations
        @ [ "steals (last col)" ])
  in
  let contenders =
    [
      (fun () -> (Systems.draconis spec, fun () -> 0));
      (fun () -> (Systems.r2p2 ~k:3 ~client_timeout:(Time.ms 2) spec, fun () -> 0));
      (fun () ->
        (* Every job from one client; no probes. *)
        let sys, running =
          Systems.r2p2_system ~k:3 ~work_stealing:true ~client_timeout:(Time.ms 2) spec
        in
        let client = Draconis_baselines.R2p2.client sys 0 in
        let running =
          {
            running with
            Systems.submit = (fun tasks -> ignore (Draconis.Client.submit_job client tasks));
            probes = (fun () -> []);
          }
        in
        (running, fun () -> Draconis_baselines.R2p2.steals sys));
    ]
  in
  (* Each grid point reads its own steal counter right after its run,
     inside the closure; the row reports the last load's count, as the
     column header says. *)
  let rows =
    Pool.map
      (List.concat_map
         (fun make ->
           List.map
             (fun load () ->
               let system, steals = make () in
               let o = measure system ~load ~quick in
               (o, steals ()))
             loads)
         contenders)
  in
  Report.add_outcomes (List.map fst rows);
  List.iter
    (fun row ->
      match row with
      | [] -> ()
      | ((first : Runner.outcome), _) :: _ ->
        let cells =
          List.map (fun ((o : Runner.outcome), _) -> Exp_common.us o.sched_p99) row
        in
        let steal_count = snd (List.nth row (List.length row - 1)) in
        Table.add_row table ((first.system :: cells) @ [ string_of_int steal_count ]))
    (Exp_common.chunk (List.length loads) rows);
  Table.print
    ~title:
      "Ablation: work stealing on R2P2-3 (sec 2.2.1 — can stealing fix node-level blocking?)"
    table

(* RackSched sampling width. *)
let sampling_width ~quick =
  let spec = Systems.default_spec in
  let executors = spec.workers * spec.executors_per_worker in
  let load = List.hd (Exp_common.loads kind ~executors ~utilizations:[ 0.85 ]) in
  let widths = if quick then [ 2 ] else [ 1; 2; 4; 10 ] in
  let table = Table.create ~columns:[ "samples"; "p50 (us)"; "p99 (us)" ] in
  let rows =
    Pool.map
      (List.map
         (fun samples () -> measure (Systems.racksched ~samples spec) ~load ~quick)
         widths)
  in
  Report.add_outcomes rows;
  List.iter2
    (fun samples (o : Runner.outcome) ->
      Table.add_row table
        [ string_of_int samples; Exp_common.us o.sched_p50; Exp_common.us o.sched_p99 ])
    widths rows;
  Table.print ~title:"Ablation: RackSched power-of-k sampling width (85% load)" table

let run ?(quick = false) () =
  pull_vs_push ~quick;
  correction_cost ~quick;
  recirc_bandwidth ~quick;
  sampling_width ~quick;
  intra_node_policy ~quick;
  work_stealing ~quick
