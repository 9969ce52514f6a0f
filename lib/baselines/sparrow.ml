open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis

type config = {
  seed : int;
  workers : int;
  executors_per_worker : int;
  clients : int;
  schedulers : int;
  probe_ratio : int;
  per_message_cost : Time.t;
  per_probe_cost : Time.t;
  fabric_config : Fabric.config;
}

let default_config =
  {
    seed = 42;
    workers = 10;
    executors_per_worker = 16;
    clients = 2;
    schedulers = 1;
    probe_ratio = 2;
    per_message_cost = Time.ns 1_000;
    per_probe_cost = Time.ns 500;
    fabric_config = Fabric.default_config;
  }

type msg =
  | Submit of { client : Addr.t; tasks : Task.t list }
  | Probe of { scheduler : Addr.t; probe_id : int }
  | Get_task of { probe_id : int; node : int }
  | Launch of { task : Task.t; probe_id : int }
  | No_task of { probe_id : int }
  | Finished of { task_id : Task.id; client : Addr.t }
  | Done of { task_id : Task.id }

type job = { mutable pending : Task.t list; job_client : Addr.t }

module Int_tbl = Hashtbl.Make (Int)

type scheduler = {
  sched_addr : Addr.t;
  cpu : Cpu.t;
  jobs : job Int_tbl.t;  (* probe_id -> job *)
  sched_rng : Rng.t;
  mutable next_probe : int;
}

type client_state = {
  client_addr : Addr.t;
  uid : int;
  mutable next_jid : int;
  mutable unfinished : int;
}

type worker = {
  node : int;
  probes : (Addr.t * int) Queue.t;  (* (scheduler, probe_id) *)
  mutable free : int;
  (* (scheduler, probe_id) pairs with a get_task in flight; probe ids
     are only unique per scheduler. *)
  waiting : unit Addr.Port_tbl.t;
}

type t = {
  config : config;
  engine : Engine.t;
  fabric : msg Fabric.t;
  metrics : Metrics.t;
  schedulers : scheduler array;
  client_states : client_state array;
  workers : worker array;
}

(* -- scheduler ------------------------------------------------------------- *)

(* Batch sampling: pick [count] worker nodes, distinct while possible. *)
let sample_nodes rng ~workers ~count =
  let chosen = Array.make count 0 in
  let used = Int_tbl.create count in
  for i = 0 to count - 1 do
    let pick = ref (Rng.int rng workers) in
    if Int_tbl.length used < workers then
      while Int_tbl.mem used !pick do
        pick := (!pick + 1) mod workers
      done;
    Int_tbl.replace used !pick ();
    chosen.(i) <- !pick
  done;
  chosen

let scheduler_handle t sched msg =
  match msg with
  | Submit { client; tasks } ->
    let job = { pending = tasks; job_client = client } in
    List.iter
      (fun (task : Task.t) -> Metrics.note_enqueue t.metrics task.id ~level:0)
      tasks;
    let count = t.config.probe_ratio * List.length tasks in
    let nodes = sample_nodes sched.sched_rng ~workers:t.config.workers ~count in
    Array.iter
      (fun node ->
        let probe_id = sched.next_probe in
        sched.next_probe <- sched.next_probe + 1;
        Int_tbl.replace sched.jobs probe_id job;
        Fabric.send t.fabric ~src:sched.sched_addr ~dst:(Addr.Host node)
          (Probe { scheduler = sched.sched_addr; probe_id }))
      nodes
  | Get_task { probe_id; node } ->
    (match Int_tbl.find_opt sched.jobs probe_id with
    | None ->
      Fabric.send t.fabric ~src:sched.sched_addr ~dst:(Addr.Host node)
        (No_task { probe_id })
    | Some job ->
      Int_tbl.remove sched.jobs probe_id;
      (match job.pending with
      | [] ->
        Fabric.send t.fabric ~src:sched.sched_addr ~dst:(Addr.Host node)
          (No_task { probe_id })
      | task :: rest ->
        job.pending <- rest;
        Metrics.note_assign t.metrics task.id ~node ~requested_at:(Engine.now t.engine);
        Fabric.send t.fabric ~src:sched.sched_addr ~dst:(Addr.Host node)
          (Launch { task; probe_id })))
  | Finished { task_id; client } ->
    Fabric.send t.fabric ~src:sched.sched_addr ~dst:client (Done { task_id })
  | Probe _ | Launch _ | No_task _ | Done _ -> ()

let scheduler_cost t msg =
  match msg with
  | Submit { tasks; _ } ->
    t.config.per_message_cost
    + (t.config.probe_ratio * List.length tasks * t.config.per_probe_cost)
  | Get_task _ | Finished _ | Probe _ | Launch _ | No_task _ | Done _ ->
    t.config.per_message_cost

(* -- worker ---------------------------------------------------------------- *)

let rec worker_bind t w =
  (* Late binding: a free executor claims the oldest probe and calls the
     scheduler back for an actual task. *)
  if w.free > 0 then begin
    match Queue.take_opt w.probes with
    | None -> ()
    | Some (scheduler, probe_id) ->
      w.free <- w.free - 1;
      Addr.Port_tbl.replace w.waiting (scheduler, probe_id) ();
      Fabric.send t.fabric ~src:(Addr.Host w.node) ~dst:scheduler
        (Get_task { probe_id; node = w.node });
      worker_bind t w
  end

let worker_handle t w fn_model ~from msg =
  match msg with
  | Probe { scheduler; probe_id } ->
    Queue.add (scheduler, probe_id) w.probes;
    worker_bind t w
  | Launch { task; probe_id } ->
    let scheduler = from in
    if Addr.Port_tbl.mem w.waiting (scheduler, probe_id) then begin
      Addr.Port_tbl.remove w.waiting (scheduler, probe_id);
      Metrics.note_exec_start t.metrics task ~node:w.node ~port:(-1);
      let service = Fn_model.service_time fn_model task ~node:w.node in
      let client =
        (* Sparrow replies to the submitting client via the scheduler;
           recover the client from the task's uid. *)
        t.client_states.(task.id.uid).client_addr
      in
      ignore
        (Engine.schedule t.engine ~after:service (fun () ->
             w.free <- w.free + 1;
             Metrics.note_exec_finish t.metrics task ~node:w.node ~port:(-1);
             Fabric.send t.fabric ~src:(Addr.Host w.node) ~dst:scheduler
               (Finished { task_id = task.id; client });
             worker_bind t w))
    end
  | No_task { probe_id } ->
    if Addr.Port_tbl.mem w.waiting (from, probe_id) then begin
      Addr.Port_tbl.remove w.waiting (from, probe_id);
      w.free <- w.free + 1;
      worker_bind t w
    end
  | Submit _ | Get_task _ | Finished _ | Done _ -> ()

(* -- assembly -------------------------------------------------------------- *)

let create (config : config) =
  if config.schedulers < 1 then invalid_arg "Sparrow.create: need schedulers";
  if config.probe_ratio < 1 then invalid_arg "Sparrow.create: probe_ratio >= 1";
  let engine = Engine.create () in
  let rng = Rng.create ~seed:config.seed in
  let fabric = Fabric.create ~config:config.fabric_config engine rng in
  let metrics = Metrics.create engine in
  let client_states =
    Array.init config.clients (fun i ->
        {
          client_addr = Addr.Host (config.workers + config.schedulers + i);
          uid = i;
          next_jid = 0;
          unfinished = 0;
        })
  in
  let schedulers =
    Array.init config.schedulers (fun i ->
        {
          sched_addr = Addr.Host (config.workers + i);
          cpu = Cpu.create engine;
          jobs = Int_tbl.create 4096;
          sched_rng = Rng.split rng;
          next_probe = 0;
        })
  in
  let workers =
    Array.init config.workers (fun node ->
        {
          node;
          probes = Queue.create ();
          free = config.executors_per_worker;
          waiting = Addr.Port_tbl.create 16;
        })
  in
  let t = { config; engine; fabric; metrics; schedulers; client_states; workers } in
  Array.iter
    (fun sched ->
      Fabric.register fabric sched.sched_addr (fun env ->
          let msg = env.Fabric.payload in
          Cpu.submit sched.cpu ~cost:(scheduler_cost t msg) (fun () ->
              scheduler_handle t sched msg)))
    schedulers;
  let fn_model = Fn_model.default in
  Array.iter
    (fun w ->
      Fabric.register fabric (Addr.Host w.node) (fun env ->
          worker_handle t w fn_model ~from:env.Fabric.src env.Fabric.payload))
    workers;
  Array.iter
    (fun cs ->
      Fabric.register fabric cs.client_addr (fun env ->
          match env.Fabric.payload with
          | Done { task_id } ->
            cs.unfinished <- cs.unfinished - 1;
            Metrics.note_complete metrics task_id ~resubmitted:false
          | Submit _ | Probe _ | Get_task _ | Launch _ | No_task _ | Finished _ -> ()))
    client_states;
  t

let submit_job t ~client tasks =
  if tasks = [] then invalid_arg "Sparrow.submit_job: empty job";
  if client < 0 || client >= Array.length t.client_states then
    invalid_arg "Sparrow.submit_job: bad client";
  let cs = t.client_states.(client) in
  let jid = cs.next_jid in
  cs.next_jid <- jid + 1;
  let tasks =
    List.mapi
      (fun tid (task : Task.t) -> { task with id = { uid = cs.uid; jid; tid } })
      tasks
  in
  List.iter
    (fun (task : Task.t) ->
      cs.unfinished <- cs.unfinished + 1;
      Metrics.note_submit t.metrics task.id)
    tasks;
  let sched = t.schedulers.(jid mod Array.length t.schedulers) in
  Fabric.send t.fabric ~src:cs.client_addr ~dst:sched.sched_addr
    (Submit { client = cs.client_addr; tasks })

let engine t = t.engine
let fabric t = t.fabric
let metrics t = t.metrics
let run t ~until = Engine.run ~until t.engine

let outstanding t =
  Array.fold_left (fun acc cs -> acc + cs.unfinished) 0 t.client_states

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

let probe_backlog t node =
  if node < 0 || node >= Array.length t.workers then
    invalid_arg "Sparrow.probe_backlog: bad node";
  Queue.length t.workers.(node).probes
