open Draconis_sim
open Draconis_net
open Draconis_p4

type config = {
  seed : int;
  workers : int;
  executors_per_worker : int;
  clients : int;
  racks : int;
  policy_of : Topology.t -> Policy.t;
  queue_capacity : int;
  fabric_config : Fabric.config;
  pipeline_config : Pipeline.config;
  noop_retry : Time.t;
  rsrc_of_node : int -> int;
  client_timeout : Time.t option;
  shards : int option;
}

let default_config =
  {
    seed = 42;
    workers = 10;
    executors_per_worker = 16;
    clients = 2;
    racks = 1;
    policy_of = (fun _ -> Policy.Fcfs);
    queue_capacity = 164_000;
    fabric_config = Fabric.default_config;
    pipeline_config = Pipeline.default_config;
    noop_retry = Time.us 4;
    rsrc_of_node = (fun _ -> 0xFFFFFFFF);
    client_timeout = None;
    shards = None;
  }

type t = {
  config : config;
  engine : Engine.t;  (* the switch LP's engine in sharded mode *)
  fabrics : Draconis_proto.Message.t Fabric.t array;  (* one per LP, the switch's first *)
  pipeline : (Draconis_proto.Message.t, Switch_packet.t) Pipeline.t;
  mutable program : Switch_program.t;
  topology : Topology.t;
  metrics : Metrics.t;
  workers : Worker.t array;
  clients : Client.t array;
  sync : Sync.t option;  (* [Some] iff the cluster is sharded *)
}

(* The switch program + pipeline assembly, shared by both modes: only
   the fabric instance (and therefore the engine) differs. *)
let build_switch (config : config) ~topology ~metrics ~fabric =
  let engine = Fabric.engine fabric in
  let policy = config.policy_of topology in
  let program =
    Switch_program.create ~engine ~metrics ~policy
      ~queue_capacity:config.queue_capacity ()
  in
  let pipeline =
    (* Per-task fabric-arrival mark: the only point where fabric
       transit can be split from pipeline match-action time. *)
    let on_ingress (msg : Draconis_proto.Message.t) =
      match msg with
      | Draconis_proto.Message.Job_submission { tasks; _ } ->
        Metrics.note_arrive metrics tasks
      | _ -> ()
    in
    Pipeline.attach ~config:config.pipeline_config ~on_ingress fabric
      ~wrap:(fun msg -> Switch_packet.Wire msg)
      (Switch_program.program program)
  in
  (program, pipeline)

let make_worker (config : config) ~fn_model ~fabric ~metrics node =
  Worker.create ~node ~executors:config.executors_per_worker ~fabric ~metrics
    ~make_config:(fun ~port ->
      {
        Executor.node;
        port;
        rsrc = config.rsrc_of_node node;
        noop_retry = config.noop_retry;
        fn_model;
        scheduler = Addr.Switch;
        watchdog = Some (Time.us 200);
      })
    ()

let make_client (config : config) ~fabric ~metrics i =
  let host = config.workers + i in
  Client.create
    ~config:
      { (Client.default_config ~host ~uid:i) with timeout = config.client_timeout }
    ~fabric ~metrics ()

let create_legacy (config : config) =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:config.seed in
  let fabric = Fabric.create ~config:config.fabric_config engine rng in
  let topology = Topology.create ~nodes:config.workers ~racks:config.racks in
  let metrics = Metrics.create ~topology engine in
  let program, pipeline = build_switch config ~topology ~metrics ~fabric in
  let fn_model = Fn_model.with_topology topology in
  let workers =
    Array.init config.workers (fun node ->
        make_worker config ~fn_model ~fabric ~metrics node)
  in
  let clients =
    Array.init config.clients (fun i -> make_client config ~fabric ~metrics i)
  in
  { config; engine; fabrics = [| fabric |]; pipeline; program; topology; metrics;
    workers; clients; sync = None }

(* -- sharded construction ------------------------------------------------- *)

(* Two layouts, the same two the fuzzer's sharded rig builds.  [Some 1]
   puts every entity on LP 0: the reference.  [Some 2] keeps the whole
   switch pipeline (shared program state, queue, PIFO store, metrics) on
   LP 0 and moves every host to LP 1, so all host <-> switch traffic
   crosses the LP boundary as stamped posts.  The pipeline cannot split
   across LPs, so no other count is built. *)
let create_sharded (config : config) shards =
  if shards < 1 || shards > 2 then
    invalid_arg
      (Printf.sprintf
         "Cluster.create: %d shards (want 1 — every entity on one LP — or 2 — \
          the switch on LP 0, every host on LP 1)"
         shards);
  let hosts = config.workers + config.clients in
  let host_lp = shards - 1 in
  let topology = Topology.create ~nodes:config.workers ~racks:config.racks in
  let lps = Array.init shards (fun id -> Lp.create ~id ~seed:config.seed ()) in
  let sync = Sync.create ~lookahead:(Fabric.lookahead config.fabric_config) lps in
  let instances =
    Fabric.router ~config:config.fabric_config ~lps ~switch_lp:0
      ~lp_of_host:(fun _ -> host_lp)
      ~hosts ~seed:config.seed ()
  in
  let switch_fabric = instances.(0) in
  let host_fabric = instances.(host_lp) in
  let metrics = Metrics.create ~topology (Fabric.engine switch_fabric) in
  let program, pipeline = build_switch config ~topology ~metrics ~fabric:switch_fabric in
  (* Every host gets a metrics facade on the host LP's clock: mutations
     travel to the switch LP as stamped closures (Fabric.router_defer),
     so sampler order is the same in both layouts. *)
  let remote_metrics host =
    Metrics.remote metrics ~engine:(Fabric.engine host_fabric)
      ~post:(fun ~at fn -> Fabric.router_defer host_fabric ~src:(Addr.Host host) ~at fn)
  in
  let fn_model = Fn_model.with_topology topology in
  let workers =
    Array.init config.workers (fun node ->
        make_worker config ~fn_model ~fabric:host_fabric ~metrics:(remote_metrics node)
          node)
  in
  let clients =
    Array.init config.clients (fun i ->
        make_client config ~fabric:host_fabric
          ~metrics:(remote_metrics (config.workers + i))
          i)
  in
  { config; engine = Fabric.engine switch_fabric; fabrics = instances; pipeline;
    program; topology; metrics; workers; clients; sync = Some sync }

let create (config : config) =
  if config.workers < 1 then invalid_arg "Cluster.create: need workers";
  if config.clients < 1 then invalid_arg "Cluster.create: need clients";
  match config.shards with
  | None -> create_legacy config
  | Some n -> create_sharded config n

let start t =
  (* Stagger initial pulls so 160 executors do not hit the switch in the
     same nanosecond. *)
  let stagger = Int.max 1 (Time.us 1 / Int.max 1 t.config.executors_per_worker) in
  Array.iter (fun worker -> Worker.start worker ~stagger) t.workers

(* [?executor] fans each barrier window's per-LP thunks out over a
   worker team (sharded mode only); the default runs them inline — the
   bit-deterministic reference, which every executor must reproduce. *)
let run ?executor t ~until =
  match t.sync with
  | None -> Engine.run ~until t.engine
  | Some sync -> Sync.run ~until ?executor sync

let outstanding t =
  Array.fold_left (fun acc client -> acc + Client.outstanding client) 0 t.clients

let run_until_drained ?executor t ~deadline =
  let step = Time.ms 1 in
  let rec go () =
    if outstanding t = 0 then true
    else if Engine.now t.engine >= deadline then false
    else begin
      run ?executor t ~until:(Int.min deadline (Engine.now t.engine + step));
      go ()
    end
  in
  go ()

let engine t = t.engine
let fabric t = t.fabrics.(0)
let fabrics t = t.fabrics
let pipeline t = t.pipeline
let program t = t.program
let topology t = t.topology
let metrics t = t.metrics
let sync t = t.sync

(* Events executed so far: summed over every LP engine when sharded. *)
let events t =
  match t.sync with None -> Engine.executed t.engine | Some sync -> Sync.executed sync

let fail_over_switch t =
  let lost = Switch_program.total_occupancy t.program in
  let fresh = Switch_program.standby t.program in
  t.program <- fresh;
  Pipeline.set_program t.pipeline (Switch_program.program fresh);
  (* The dead switch's in-flight and recirculating packets (repairs,
     swaps, submissions mid-pipeline) never reach the standby. *)
  Pipeline.flush_in_flight t.pipeline;
  lost

let stagger t = Int.max 1 (Time.us 1 / Int.max 1 t.config.executors_per_worker)

let crash_worker t i =
  if i < 0 || i >= Array.length t.workers then
    invalid_arg "Cluster.crash_worker: bad index";
  Worker.crash t.workers.(i)

let restart_worker t i =
  if i < 0 || i >= Array.length t.workers then
    invalid_arg "Cluster.restart_worker: bad index";
  Worker.restart t.workers.(i) ~stagger:(stagger t)

let set_node_slowdown t i factor =
  if i < 0 || i >= Array.length t.workers then
    invalid_arg "Cluster.set_node_slowdown: bad index";
  Worker.set_slowdown t.workers.(i) factor

let worker t i =
  if i < 0 || i >= Array.length t.workers then invalid_arg "Cluster.worker: bad index";
  t.workers.(i)

let client t i =
  if i < 0 || i >= Array.length t.clients then invalid_arg "Cluster.client: bad index";
  t.clients.(i)

let clients t = t.clients
let workers t = t.workers
let total_executors t = Array.length t.workers * t.config.executors_per_worker

let busy_executors t =
  let busy = ref 0 in
  Array.iter
    (fun worker ->
      Worker.iter_executors worker (fun exec -> if Executor.busy exec then incr busy))
    t.workers;
  !busy
