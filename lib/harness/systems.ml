open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis
module B = Draconis_baselines
module Obs = Draconis_obs

type spec = {
  workers : int;
  executors_per_worker : int;
  clients : int;
  seed : int;
}

let default_spec = { workers = 10; executors_per_worker = 16; clients = 2; seed = 42 }

type counts = {
  sent : int;
  delivered : int;
  lost : int;
  partition_dropped : int;
  undeliverable : int;
  processed : int;
  recirculated : int;
  recirc_dropped : int;
  flushed : int;
  assignments : int;
  noops : int;
  rejected_tasks : int;
  swaps : int;
  swap_exchanges : int;
  resubmissions : int;
  repairs_launched : int;
  recirculations : int;
  renumbers : int;
  submitted : int;
  completed : int;
  resubmitted : int;
  abandoned : int;
  queue_full_bounces : int;
  executed : int;
  server_rejected : int;
}

(* A system's counts: its components' own counters, summed over
   [fabrics], [clients] and [workers]; a component it lacks counts 0. *)
let read_counts ?(fabrics = [||]) ?pipeline ?program ?(clients = [||]) ?(workers = [||])
    ?(server_rejected = 0) () =
  let sum count items = Array.fold_left (fun n x -> n + count x) 0 items in
  let of_pipeline count = Option.fold ~none:0 ~some:count pipeline in
  let of_program count = Option.fold ~none:0 ~some:count program in
  {
    sent = sum Fabric.sent fabrics;
    delivered = sum Fabric.delivered fabrics;
    lost = sum Fabric.lost fabrics;
    partition_dropped = sum Fabric.partition_dropped fabrics;
    undeliverable = sum Fabric.undeliverable fabrics;
    processed = of_pipeline Draconis_p4.Pipeline.processed;
    recirculated = of_pipeline Draconis_p4.Pipeline.recirculated;
    recirc_dropped = of_pipeline Draconis_p4.Pipeline.recirc_dropped;
    flushed = of_pipeline Draconis_p4.Pipeline.flushed;
    assignments = of_program Switch_program.assignments;
    noops = of_program Switch_program.noops;
    rejected_tasks = of_program Switch_program.rejected_tasks;
    swaps = of_program Switch_program.swaps;
    swap_exchanges = of_program Switch_program.swap_exchanges;
    resubmissions = of_program Switch_program.resubmissions;
    repairs_launched = of_program Switch_program.repairs_launched;
    recirculations = of_program Switch_program.recirculations;
    renumbers = of_program Switch_program.renumbers;
    submitted = sum Client.tasks_submitted clients;
    completed = sum Client.completions clients;
    resubmitted = sum Client.resubmitted clients;
    abandoned = sum Client.abandoned clients;
    queue_full_bounces = sum Client.queue_full_bounces clients;
    executed = sum Worker.tasks_executed workers;
    server_rejected;
  }

(* How the runner drives a system's virtual time.  Single-engine systems
   get [engine_control]; the sharded cluster supplies window-protocol
   implementations (Sync.run on a Pool.Team, cross-LP flushing, staged
   submission). *)
type control = {
  run_until : Time.t -> unit;
  now : unit -> Time.t;
  events : unit -> int;
  finish : unit -> unit;
      (* flush in-flight cross-LP effects (deferred metric notes) before
         the runner freezes the outcome; no-op on single-engine systems *)
  close : unit -> unit;  (* release worker domains; idempotent *)
  stage : (at:Time.t -> Task.t list -> unit) option;
      (* [Some] iff the workload must be pre-staged before the run: the
         runner records the driver's submission schedule against a
         throwaway engine and replays it here, pinning each submission
         to the owning client's LP at the recorded time *)
}

type running = {
  name : string;
  engine : Engine.t;
  metrics : Metrics.t;
  submit : Task.t list -> unit;
  outstanding : unit -> int;
  counts : unit -> counts;
  probes : unit -> (string * (unit -> int)) list;
  phase_attribution : bool;
  control : control;
}

let engine_control engine =
  {
    run_until = (fun until -> Engine.run ~until engine);
    now = (fun () -> Engine.now engine);
    events = (fun () -> Engine.executed engine);
    finish = (fun () -> ());
    close = (fun () -> ());
    stage = None;
  }

(* Probe sources over a pipeline shared by Draconis and the switch-based
   baselines. *)
let pipeline_probes pipeline =
  [ ("pipeline.recirculated", fun () -> Draconis_p4.Pipeline.recirculated pipeline);
    ("pipeline.recirc_dropped", fun () -> Draconis_p4.Pipeline.recirc_dropped pipeline);
  ]

let fabric_probes fabric =
  [ ("fabric.delivered", fun () -> Fabric.delivered fabric);
    ("fabric.lost", fun () -> Fabric.lost fabric);
  ]

(* Jobs round-robin across a system's clients, like the paper's multiple
   load generators. *)
let round_robin_submit clients submit_one =
  let cursor = ref 0 in
  fun tasks ->
    let i = !cursor in
    cursor := (i + 1) mod Array.length clients;
    submit_one clients.(i) tasks

(* Window-protocol control for a sharded cluster: Sync.run on a
   persistent Pool.Team (sized by --jobs, capped at the LP count —
   outcomes are lane-count independent, so the cap is purely a resource
   decision). *)
let sharded_control cluster sync =
  let shard_count = Array.length (Sync.lps sync) in
  let lanes = max 1 (min shard_count (Pool.jobs ())) in
  let team = if lanes > 1 then Some (Pool.Team.create ~size:lanes) else None in
  let executor = Option.map (fun team thunks -> Pool.Team.run team thunks) team in
  let now () =
    Array.fold_left
      (fun acc lp -> max acc (Engine.now (Lp.engine lp)))
      Time.zero (Sync.lps sync)
  in
  (* An installed recorder or INT collector is domain-local, so an
     observed run keeps its windows on the caller's domain: every LP's
     marks, spans, samples and INT stacks then reach it, in the same
     order on every run.  Any executor gives the same outcome
     (DESIGN §16). *)
  let run_until until =
    if Obs.Recorder.active () || Option.is_some (Obs.Int_telemetry.current_collector ())
    then Cluster.run cluster ~until
    else Cluster.run ?executor cluster ~until
  in
  let cursor = ref 0 in
  let clients = Cluster.clients cluster in
  {
    run_until;
    now;
    events = (fun () -> Cluster.events cluster);
    finish =
      (fun () ->
        (* Two extra lookahead windows flush deferred cross-LP metric
           closures (submit notes ride one hop; exec-start notes are
           already bounded by task flight time).  The flush horizon is a
           pure function of the model, so it cannot perturb cross-shard
           outcome equality. *)
        run_until (now () + (2 * Sync.lookahead sync)));
    close = (fun () -> Option.iter Pool.Team.shutdown team);
    stage =
      Some
        (fun ~at tasks ->
          let i = !cursor in
          cursor := (i + 1) mod Array.length clients;
          let client = clients.(i) in
          ignore
            (Engine.schedule_at (Client.engine client) ~at (fun () ->
                 ignore (Client.submit_job client tasks))));
  }

let draconis_cluster ?(policy_of = fun _ -> Policy.Fcfs) ?(racks = 1)
    ?(queue_capacity = 164_000) ?(rsrc_of_node = fun _ -> 0xFFFFFFFF) ?client_timeout
    ?(noop_retry = Time.us 4) ?(pipeline_config = Draconis_p4.Pipeline.default_config)
    ?shards spec =
  let cluster =
    Cluster.create
      {
        Cluster.default_config with
        seed = spec.seed;
        workers = spec.workers;
        executors_per_worker = spec.executors_per_worker;
        clients = spec.clients;
        racks;
        policy_of;
        queue_capacity;
        noop_retry;
        rsrc_of_node;
        client_timeout;
        pipeline_config;
        shards;
      }
  in
  Cluster.start cluster;
  let sharded = Cluster.sync cluster in
  let control =
    match sharded with
    | None -> engine_control (Cluster.engine cluster)
    | Some sync -> sharded_control cluster sync
  in
  let running =
    {
      name = "Draconis";
      engine = Cluster.engine cluster;
      metrics = Cluster.metrics cluster;
      submit =
        round_robin_submit (Cluster.clients cluster) (fun client tasks ->
            ignore (Client.submit_job client tasks));
      outstanding = (fun () -> Cluster.outstanding cluster);
      counts =
        (fun () ->
          read_counts ~fabrics:(Cluster.fabrics cluster) ~pipeline:(Cluster.pipeline cluster)
            ~program:(Cluster.program cluster) ~clients:(Cluster.clients cluster)
            ~workers:(Cluster.workers cluster) ());
      probes =
        (fun () ->
          if Option.is_some sharded then
            (* Ambient observability is engine-local; sampling it from
               the runner's domain during a sharded run would race the
               worker lanes.  Sharded runs report end-state metrics
               only. *)
            []
          else
            (* The program is re-fetched per sample so probes follow a
               switch fail-over to the standby's fresh queues. *)
            (("queue.occupancy",
              fun () -> Switch_program.total_occupancy (Cluster.program cluster))
             :: ("executors.busy", fun () -> Cluster.busy_executors cluster)
             :: pipeline_probes (Cluster.pipeline cluster))
            @ fabric_probes (Cluster.fabric cluster));
      phase_attribution = Option.is_none sharded;
      control;
    }
  in
  (cluster, running)

let draconis ?policy_of ?racks ?queue_capacity ?rsrc_of_node ?client_timeout
    ?noop_retry ?pipeline_config ?shards spec =
  snd
    (draconis_cluster ?policy_of ?racks ?queue_capacity ?rsrc_of_node ?client_timeout
       ?noop_retry ?pipeline_config ?shards spec)

let r2p2_system ~k ?client_timeout
    ?(pipeline_config = Draconis_p4.Pipeline.default_config)
    ?(work_stealing = false) spec =
  let system =
    B.R2p2.create
      {
        B.R2p2.default_config with
        seed = spec.seed;
        workers = spec.workers;
        executors_per_worker = spec.executors_per_worker;
        clients = spec.clients;
        jbsq_k = k;
        work_stealing;
        client_timeout;
        pipeline_config;
      }
  in
  ( system,
    {
    name = Printf.sprintf "R2P2-%d%s" k (if work_stealing then "+WS" else "");
    engine = B.R2p2.engine system;
    metrics = B.R2p2.metrics system;
    submit =
      round_robin_submit (B.R2p2.clients system) (fun client tasks ->
          ignore (Client.submit_job client tasks));
    outstanding = (fun () -> B.R2p2.outstanding system);
      counts =
        (fun () ->
          read_counts ~fabrics:[| B.R2p2.fabric system |] ~pipeline:(B.R2p2.pipeline system)
            ~clients:(B.R2p2.clients system) ());
      probes = (fun () -> pipeline_probes (B.R2p2.pipeline system));
      phase_attribution = false;
      control = engine_control (B.R2p2.engine system);
    } )

let r2p2 ~k ?client_timeout ?pipeline_config ?work_stealing spec =
  snd (r2p2_system ~k ?client_timeout ?pipeline_config ?work_stealing spec)

let racksched_system ?client_timeout ?(samples = 2) ?(intra = B.Node_worker.Fcfs) spec =
  let system =
    B.Racksched.create
      {
        B.Racksched.default_config with
        seed = spec.seed;
        workers = spec.workers;
        executors_per_worker = spec.executors_per_worker;
        clients = spec.clients;
        samples;
        intra;
        client_timeout;
      }
  in
  let name =
    match (samples, intra) with
    | 2, B.Node_worker.Fcfs -> "RackSched"
    | k, B.Node_worker.Fcfs -> Printf.sprintf "RackSched-Po%d" k
    | 2, B.Node_worker.Processor_sharing _ -> "RackSched-PS"
    | k, B.Node_worker.Processor_sharing _ -> Printf.sprintf "RackSched-Po%d-PS" k
  in
  ( system,
    {
      name;
      engine = B.Racksched.engine system;
      metrics = B.Racksched.metrics system;
      submit =
        round_robin_submit (B.Racksched.clients system) (fun client tasks ->
            ignore (Client.submit_job client tasks));
      outstanding = (fun () -> B.Racksched.outstanding system);
      counts =
        (fun () ->
          read_counts ~fabrics:[| B.Racksched.fabric system |]
            ~pipeline:(B.Racksched.pipeline system) ~clients:(B.Racksched.clients system) ());
      probes = (fun () -> pipeline_probes (B.Racksched.pipeline system));
      phase_attribution = false;
      control = engine_control (B.Racksched.engine system);
    } )

let racksched ?client_timeout ?samples ?intra spec =
  snd (racksched_system ?client_timeout ?samples ?intra spec)

let sparrow ~schedulers spec =
  let system =
    B.Sparrow.create
      {
        B.Sparrow.default_config with
        seed = spec.seed;
        workers = spec.workers;
        executors_per_worker = spec.executors_per_worker;
        clients = spec.clients;
        schedulers;
      }
  in
  let cursor = ref 0 in
  {
    name = (if schedulers = 1 then "1 Sparrow" else Printf.sprintf "%d Sparrow" schedulers);
    engine = B.Sparrow.engine system;
    metrics = B.Sparrow.metrics system;
    submit =
      (fun tasks ->
        let client = !cursor in
        cursor := (client + 1) mod spec.clients;
        B.Sparrow.submit_job system ~client tasks);
    outstanding = (fun () -> B.Sparrow.outstanding system);
    counts = (fun () -> read_counts ~fabrics:[| B.Sparrow.fabric system |] ());
    probes = (fun () -> []);
    phase_attribution = false;
    control = engine_control (B.Sparrow.engine system);
  }

let central_server_system ?client_timeout variant spec =
  let system =
    B.Central_server.create
      {
        B.Central_server.default_config with
        seed = spec.seed;
        workers = spec.workers;
        executors_per_worker = spec.executors_per_worker;
        clients = spec.clients;
        variant;
        client_timeout;
      }
  in
  B.Central_server.start system;
  ( system,
    {
      name =
        (match variant with
        | B.Central_server.Socket -> "Draconis-Socket-Server"
        | B.Central_server.Dpdk -> "Draconis-DPDK-Server"
        | B.Central_server.Firmament -> "Firmament"
        | B.Central_server.Spark_native -> "Spark-Native");
      engine = B.Central_server.engine system;
      metrics = B.Central_server.metrics system;
      submit =
        round_robin_submit (B.Central_server.clients system) (fun client tasks ->
            ignore (Client.submit_job client tasks));
      outstanding = (fun () -> B.Central_server.outstanding system);
      counts =
        (fun () ->
          read_counts ~fabrics:[| B.Central_server.fabric system |]
            ~clients:(B.Central_server.clients system)
            ~workers:(B.Central_server.workers system)
            ~server_rejected:(B.Central_server.rejected system) ());
      probes = (fun () -> []);
      phase_attribution = false;
      control = engine_control (B.Central_server.engine system);
    } )

let central_server ?client_timeout variant spec =
  snd (central_server_system ?client_timeout variant spec)
