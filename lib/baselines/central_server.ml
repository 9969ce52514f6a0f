open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis

type variant = Socket | Dpdk | Firmament | Spark_native

let per_packet_cost = function
  | Socket -> Time.ns 1_250
  | Dpdk -> Time.ns 250
  (* ~240k decisions/s ceiling: 1200 executors of 5 ms tasks, the
     paper's reported Firmament limit. *)
  | Firmament -> Time.ns 850
  (* Millisecond-scale per-task framework overhead. *)
  | Spark_native -> Time.us 40

type config = {
  seed : int;
  workers : int;
  executors_per_worker : int;
  clients : int;
  variant : variant;
  queue_capacity : int;
  noop_retry : Time.t;
  fabric_config : Fabric.config;
  client_timeout : Time.t option;
}

let default_config =
  {
    seed = 42;
    workers = 10;
    executors_per_worker = 16;
    clients = 2;
    variant = Dpdk;
    queue_capacity = 4_000_000;
    noop_retry = Time.us 4;
    fabric_config = Fabric.default_config;
    client_timeout = None;
  }

type queued = { task : Task.t; client : Addr.t }

type t = {
  config : config;
  engine : Engine.t;
  fabric : Message.t Fabric.t;
  metrics : Metrics.t;
  server_addr : Addr.t;
  cpu : Cpu.t;
  queue : queued Queue.t;
  (* Idle executors whose pull requests the server has parked; a server
     has the memory to hold requests until work arrives, so — unlike the
     switch — it never answers with a no-op.  [parked] deduplicates
     watchdog re-sends. *)
  idle : (Message.executor_info * Time.t) Queue.t;
  parked : unit Addr.Port_tbl.t;
  workers : Worker.t array;
  clients : Client.t array;
  mutable rejected : int;
}

let cost t = per_packet_cost t.config.variant

(* Every outbound packet occupies the CPU like an inbound one. *)
let send_costed t ~dst msg =
  Cpu.submit t.cpu ~cost:(cost t) (fun () ->
      Fabric.send t.fabric ~src:t.server_addr ~dst msg)

let assign t (info : Message.executor_info) { task; client } ~requested_at =
  Metrics.note_assign t.metrics task.id ~node:info.exec_node ~requested_at;
  send_costed t ~dst:info.exec_addr
    (Message.Task_assignment { task; client; port = info.exec_port })

(* Match parked executors with queued tasks until one side runs dry. *)
let exec_key (info : Message.executor_info) = (info.exec_addr, info.exec_port)

let rec pump t =
  if not (Queue.is_empty t.queue) then begin
    match Queue.take_opt t.idle with
    | None -> ()
    | Some (info, requested_at) ->
      (* Skip entries invalidated by a duplicate park. *)
      if Addr.Port_tbl.mem t.parked (exec_key info) then begin
        Addr.Port_tbl.remove t.parked (exec_key info);
        let item = Queue.take t.queue in
        assign t info item ~requested_at
      end;
      pump t
  end

let enqueue_tasks t ~client ~uid ~jid tasks =
  let accepted, bounced =
    List.partition
      (fun _ -> Queue.length t.queue < t.config.queue_capacity)
      tasks
  in
  List.iter
    (fun (task : Task.t) ->
      Metrics.note_enqueue t.metrics task.id ~level:0;
      Queue.add { task; client } t.queue)
    accepted;
  if bounced <> [] then begin
    t.rejected <- t.rejected + List.length bounced;
    Metrics.note_reject t.metrics bounced;
    send_costed t ~dst:client (Message.Queue_full { uid; jid; tasks = bounced })
  end
  else send_costed t ~dst:client (Message.Job_ack { uid; jid });
  pump t

let serve_request t (info : Message.executor_info) ~requested_at =
  match Queue.take_opt t.queue with
  | None ->
    if not (Addr.Port_tbl.mem t.parked (exec_key info)) then begin
      Addr.Port_tbl.replace t.parked (exec_key info) ();
      Queue.add (info, requested_at) t.idle
    end
  | Some item -> assign t info item ~requested_at

let handle t (msg : Message.t) ~arrived_at =
  match msg with
  | Job_submission { client; uid; jid; tasks } -> enqueue_tasks t ~client ~uid ~jid tasks
  | Task_request { info; rtrv_prio = _ } -> serve_request t info ~requested_at:arrived_at
  | Task_completion { client; info; _ } ->
    send_costed t ~dst:client msg;
    serve_request t info ~requested_at:arrived_at
  | Job_ack _ | Queue_full _ | Task_assignment _ | Noop_assignment _
  | Param_fetch _ | Param_data _ ->
    ()

let create (config : config) =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:config.seed in
  let fabric = Fabric.create ~config:config.fabric_config engine rng in
  let metrics = Metrics.create engine in
  let server_host = config.workers in
  let server_addr = Addr.Host server_host in
  let cpu = Cpu.create engine in
  let fn_model = Fn_model.default in
  let workers =
    Array.init config.workers (fun node ->
        Worker.create ~node ~executors:config.executors_per_worker ~fabric ~metrics
          ~make_config:(fun ~port ->
            {
              Executor.node;
              port;
              rsrc = 0xFFFFFFFF;
              noop_retry = config.noop_retry;
              fn_model;
              scheduler = server_addr;
              (* The server parks requests and deduplicates, so a
                 watchdog re-send is safe and recovers lost packets. *)
              watchdog = Some (Time.ms 1);
            })
          ())
  in
  let clients =
    Array.init config.clients (fun i ->
        Client.create
          ~config:
            {
              (Client.default_config ~host:(server_host + 1 + i) ~uid:i) with
              timeout = config.client_timeout;
              schedulers = [| server_addr |];
            }
          ~fabric ~metrics ())
  in
  let t =
    { config; engine; fabric; metrics; server_addr; cpu; queue = Queue.create ();
      idle = Queue.create (); parked = Addr.Port_tbl.create 256; workers; clients;
      rejected = 0 }
  in
  (* Every arriving packet occupies the scheduler CPU before it is
     acted on — the single-node bottleneck of §2.3.1. *)
  Fabric.register fabric server_addr (fun env ->
      let arrived_at = Engine.now engine in
      Cpu.submit cpu ~cost:(cost t) (fun () -> handle t env.Fabric.payload ~arrived_at));
  t

let start t =
  let stagger = Int.max 1 (Time.us 1 / Int.max 1 t.config.executors_per_worker) in
  Array.iter (fun worker -> Worker.start worker ~stagger) t.workers

let engine t = t.engine
let fabric t = t.fabric
let metrics t = t.metrics

let fail_over_server t =
  (* The server host dies and a cold standby takes over: the in-memory
     task queue and the parked pull requests are gone.  Executors
     recover via their watchdog re-sends; lost tasks via client
     timeouts. *)
  let lost = Queue.length t.queue in
  Queue.clear t.queue;
  Queue.clear t.idle;
  Addr.Port_tbl.reset t.parked;
  lost

let stagger t = Int.max 1 (Time.us 1 / Int.max 1 t.config.executors_per_worker)

let crash_worker t i =
  if i < 0 || i >= Array.length t.workers then
    invalid_arg "Central_server.crash_worker: bad index";
  Worker.crash t.workers.(i)

let restart_worker t i =
  if i < 0 || i >= Array.length t.workers then
    invalid_arg "Central_server.restart_worker: bad index";
  Worker.restart t.workers.(i) ~stagger:(stagger t)

let set_node_slowdown t i factor =
  if i < 0 || i >= Array.length t.workers then
    invalid_arg "Central_server.set_node_slowdown: bad index";
  Worker.set_slowdown t.workers.(i) factor

let client t i =
  if i < 0 || i >= Array.length t.clients then
    invalid_arg "Central_server.client: bad index";
  t.clients.(i)

let clients t = t.clients
let workers t = t.workers
let rejected t = t.rejected
let queue_length t = Queue.length t.queue
let idle_executors t = Queue.length t.idle
let packets_processed t = Cpu.completed t.cpu
let run t ~until = Engine.run ~until t.engine

let outstanding t =
  Array.fold_left (fun acc c -> acc + Client.outstanding c) 0 t.clients

let run_until_drained t ~deadline =
  let step = Time.ms 1 in
  let rec go () =
    if outstanding t = 0 then true
    else if Engine.now t.engine >= deadline then false
    else begin
      Engine.run ~until:(Int.min deadline (Engine.now t.engine + step)) t.engine;
      go ()
    end
  in
  go ()

let total_executors t = t.config.workers * t.config.executors_per_worker
