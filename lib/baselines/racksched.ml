open Draconis_sim
open Draconis_net
open Draconis_p4
open Draconis_proto
open Draconis

type pkt = Wire of Message.t | Incr of { node : int }

type config = {
  seed : int;
  workers : int;
  executors_per_worker : int;
  clients : int;
  samples : int;
  intra : Node_worker.intra_policy;
  dispatch_overhead : Time.t;
  fabric_config : Fabric.config;
  pipeline_config : Pipeline.config;
  client_timeout : Time.t option;
}

let default_config =
  {
    seed = 42;
    workers = 10;
    executors_per_worker = 16;
    clients = 2;
    samples = 2;
    intra = Node_worker.Fcfs;
    dispatch_overhead = Time.us_f 3.5;
    fabric_config = Fabric.default_config;
    pipeline_config = Pipeline.default_config;
    client_timeout = None;
  }

type switch = {
  workers : int;
  samples : int;
  qlen : Register.t array;  (* one single-cell register per node *)
  metrics : Metrics.t;
  engine : Engine.t;
}

type t = {
  config : config;
  engine : Engine.t;
  fabric : Message.t Fabric.t;
  pipeline : (Message.t, pkt) Pipeline.t;
  switch : switch;
  metrics : Metrics.t;
  clients : Client.t array;
}

(* Deterministic per-task sampling hash, standing in for the switch's
   CRC-based hash of packet fields. *)
let mix x =
  let x = x * 0x9E3779B97F4A7C1 in
  let x = x lxor (x lsr 29) in
  let x = x * 0xBF58476D1CE4E5B in
  (x lxor (x lsr 32)) land max_int

(* [count] distinct nodes from a per-task hash stream. *)
let sample_nodes (id : Task.id) ~workers ~count =
  let count = Int.min count workers in
  let chosen = Array.make count 0 in
  let h = ref (mix ((id.uid * 1_000_003) + (id.jid * 8191) + id.tid)) in
  for i = 0 to count - 1 do
    let pick = ref (!h mod workers) in
    h := mix (!h + 1);
    let taken p =
      let rec scan j = j < i && (chosen.(j) = p || scan (j + 1)) in
      scan 0
    in
    while taken !pick do
      pick := (!pick + 1) mod workers
    done;
    chosen.(i) <- !pick
  done;
  chosen

let assign (sw : switch) ~(task : Task.t) ~client node =
  Metrics.note_assign sw.metrics task.id ~node ~requested_at:(Engine.now sw.engine);
  Pipeline.Emit (Addr.Host node, Message.Task_assignment { task; client; port = 0 })

(* Power-of-k choices: the first k-1 sampled counters are plain reads;
   the last is read and conditionally incremented against their minimum
   in a single access (it wins ties).  When an earlier sample wins, its
   increment rides a one-hop recirculation — the brief staleness this
   creates mirrors the real system's update lag. *)
let schedule_task (sw : switch) ctx ~task ~client =
  let nodes = sample_nodes task.Task.id ~workers:sw.workers ~count:sw.samples in
  let k = Array.length nodes in
  if k = 1 then begin
    let node = nodes.(0) in
    ignore (Register.read_and_increment sw.qlen.(node) ctx 0);
    [ assign sw ~task ~client node ]
  end
  else begin
    let best = ref nodes.(0) in
    let best_len = ref (Register.read sw.qlen.(nodes.(0)) ctx 0) in
    for i = 1 to k - 2 do
      let len = Register.read sw.qlen.(nodes.(i)) ctx 0 in
      if len < !best_len then begin
        best := nodes.(i);
        best_len := len
      end
    done;
    let last = nodes.(k - 1) in
    let last_len =
      Register.read_modify_write sw.qlen.(last) ctx 0 (fun c ->
          if c <= !best_len then c + 1 else c)
    in
    if last_len <= !best_len then [ assign sw ~task ~client last ]
    else [ assign sw ~task ~client !best; Pipeline.Recirculate (Incr { node = !best }) ]
  end

let program (sw : switch) : (Message.t, pkt) Pipeline.program =
 fun ctx pkt ->
  match pkt with
  | Wire (Job_submission { client; uid; jid; tasks }) ->
    (match tasks with
    | [] -> [ Pipeline.Emit (client, Message.Job_ack { uid; jid }) ]
    | task :: rest ->
      Metrics.note_enqueue sw.metrics task.Task.id ~level:0;
      let continuation =
        if rest = [] then []
        else
          [ Pipeline.Recirculate (Wire (Job_submission { client; uid; jid; tasks = rest })) ]
      in
      schedule_task sw ctx ~task ~client @ continuation)
  | Incr { node } ->
    ignore (Register.read_and_increment sw.qlen.(node) ctx 0);
    []
  | Wire (Task_completion { info; client; _ } as completion) ->
    ignore
      (Register.read_modify_write sw.qlen.(info.exec_node) ctx 0 (fun c -> Int.max 0 (c - 1)));
    [ Pipeline.Emit (client, completion) ]
  | Wire
      ( Job_ack _ | Queue_full _ | Task_request _ | Task_assignment _
      | Noop_assignment _ | Param_fetch _ | Param_data _ ) ->
    [ Pipeline.Drop ]

let create (config : config) =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:config.seed in
  let fabric = Fabric.create ~config:config.fabric_config engine rng in
  let metrics = Metrics.create engine in
  let sw =
    {
      workers = config.workers;
      samples = Int.max 1 config.samples;
      qlen =
        Array.init config.workers (fun i ->
            Register.create ~name:(Printf.sprintf "racksched.qlen%d" i) ~size:1 ());
      metrics;
      engine;
    }
  in
  let pipeline =
    Pipeline.attach ~config:config.pipeline_config fabric
      ~wrap:(fun msg -> Wire msg)
      (program sw)
  in
  let fn_model = Fn_model.default in
  for node = 0 to config.workers - 1 do
    let worker =
      Node_worker.create ~engine ~metrics ~node ~executors:config.executors_per_worker
        ~fn_model ~dispatch_overhead:config.dispatch_overhead
        ~dispatch_jitter:(Time.us 4) ~rng:(Rng.split rng) ~intra:config.intra
        ~on_complete:(fun task ~client ->
          Fabric.send fabric ~src:(Addr.Host node) ~dst:Addr.Switch
            (Message.Task_completion
               {
                 task_id = task.id;
                 client;
                 info =
                   {
                     exec_addr = Addr.Host node;
                     exec_port = 0;
                     exec_rsrc = 0;
                     exec_node = node;
                   };
                 rtrv_prio = 1;
               }))
        ()
    in
    Fabric.register fabric (Addr.Host node) (fun env ->
        match env.Fabric.payload with
        | Message.Task_assignment { task; client; port = _ } ->
          Node_worker.deliver worker task ~client
        | Message.Job_submission _ | Message.Job_ack _ | Message.Queue_full _
        | Message.Task_request _ | Message.Noop_assignment _
        | Message.Task_completion _ | Message.Param_fetch _ | Message.Param_data _ ->
          ())
  done;
  let clients =
    Array.init config.clients (fun i ->
        Client.create
          ~config:
            {
              (Client.default_config ~host:(config.workers + i) ~uid:i) with
              timeout = config.client_timeout;
            }
          ~fabric ~metrics ())
  in
  { config; engine; fabric; pipeline; switch = sw; metrics; clients }

let engine t = t.engine
let fabric t = t.fabric
let metrics t = t.metrics
let pipeline t = t.pipeline

let fail_over_switch t =
  (* Standby switch starts with zeroed queue-length counters and no
     in-flight packets.  RackSched queues tasks at the nodes, not the
     switch, so no queued work is lost — but the counters now under-read
     until completions re-balance them. *)
  Array.iter (fun reg -> Register.poke reg 0 0) t.switch.qlen;
  Pipeline.flush_in_flight t.pipeline;
  0

let client t i =
  if i < 0 || i >= Array.length t.clients then invalid_arg "Racksched.client: bad index";
  t.clients.(i)

let clients t = t.clients

let queue_length t node =
  if node < 0 || node >= t.switch.workers then
    invalid_arg "Racksched.queue_length: bad node";
  Register.peek t.switch.qlen.(node) 0

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
