open Draconis_workload

(* The cluster-shard experiment: run the *real* Draconis deployment —
   switch pipeline, workers, clients, the full protocol — sharded over
   1, 2 and 4 logical processes (plus whatever --shards/DRACONIS_SHARDS
   asks for), assert the tentpole contract (outcomes bit-identical for
   every shard count), and report one row per count so BENCH_engine.json
   tracks events/sec scaling of the parallel data path.

   These rows measure the production code path: Sync barrier windows
   run on a Pool.Team, whose lanes claim each window's LPs from one
   shared cursor. *)

let kind = Synthetic.Fixed_500us

(* Fields that must not move across shard counts — everything the
   outcome carries except wall-clock throughput. *)
let digest (o : Runner.outcome) =
  ( o.submitted, o.started, o.completed, o.timeouts, o.rejected, o.sched_p50,
    o.sched_p99, o.swaps, o.recirculations, o.events, o.drained )

let run ?(quick = false) () =
  let spec = Systems.default_spec in
  let executors = spec.workers * spec.executors_per_worker in
  let rate_tps = 0.7 *. Exp_common.capacity_tps kind ~executors in
  let horizon =
    Exp_common.horizon_for ~rate_tps
      ~target_tasks:(if quick then 5_000 else 25_000)
      ()
  in
  let driver = Exp_common.synthetic_driver kind ~rate_tps ~horizon in
  let shard_counts =
    List.sort_uniq compare
      (match Shard.requested () with Some n -> [ 1; 2; 4; n ] | None -> [ 1; 2; 4 ])
  in
  let results =
    List.map
      (fun shards ->
        let system = Systems.draconis ~shards spec in
        let t0 = Unix.gettimeofday () in
        let outcome = Runner.run system ~driver ~load_tps:rate_tps ~horizon () in
        let wall_s = Unix.gettimeofday () -. t0 in
        (shards, wall_s, outcome))
      shard_counts
  in
  let _, _, reference = List.hd results in
  List.iter
    (fun (shards, _, (o : Runner.outcome)) ->
      (* Bit-identical outcomes are the whole contract; a divergence is
         a bug in the stamped data path, never an acceptable variance. *)
      if digest o <> digest reference then
        failwith
          (Printf.sprintf
             "cluster-shard: outcome with %d shards diverges from the reference"
             shards))
    results;
  let table =
    Draconis_stats.Table.create
      ~columns:
        [ "shards"; "lanes"; "submitted"; "completed"; "p99 (us)"; "events";
          "wall s"; "events/sec" ]
  in
  List.iter
    (fun (shards, wall_s, (o : Runner.outcome)) ->
      Draconis_stats.Table.add_row table
        [
          string_of_int shards;
          string_of_int (max 1 (min shards (Pool.jobs ())));
          string_of_int o.submitted;
          string_of_int o.completed;
          Exp_common.us o.sched_p99;
          string_of_int o.events;
          Printf.sprintf "%.3f" wall_s;
          Printf.sprintf "%.0f"
            (if wall_s > 0.0 then float_of_int o.events /. wall_s else 0.0);
        ])
    results;
  Draconis_stats.Table.print
    ~title:"cluster-shard: real data path across shard counts (team-run windows)"
    table;
  Printf.printf
    "outcomes identical across %s shards (submitted=%d completed=%d events=%d)\n%!"
    (String.concat "/" (List.map string_of_int shard_counts))
    reference.submitted reference.completed reference.events;
  Report.add_outcomes
    (List.map
       (fun (shards, wall_s, (o : Runner.outcome)) ->
         {
           o with
           Runner.system = Printf.sprintf "cluster-shard-n%d" shards;
           events_per_sec =
             (if wall_s > 0.0 then float_of_int o.events /. wall_s else 0.0);
         })
       results)
