open Draconis_sim
open Draconis_net
open Draconis_proto

type intra_policy =
  | Fcfs
  | Processor_sharing of { quantum : Time.t; overhead : Time.t }

type pending = {
  task : Task.t;
  client : Addr.t;
  mutable remaining : Time.t;
  mutable started : bool;  (* first slice began (for measurement hooks) *)
}

type t = {
  engine : Engine.t;
  metrics : Draconis.Metrics.t;
  node : int;
  fn_model : Draconis.Fn_model.t;
  dispatch_overhead : Time.t;
  dispatch_jitter : Time.t;
  rng : Rng.t option;
  intra : intra_policy;
  on_complete : Task.t -> client:Addr.t -> unit;
  queue : pending Queue.t;
  mutable free_executors : int;
  mutable tasks_executed : int;
  mutable occupancy : int;
  mutable preemptions : int;
}

let create ~engine ~metrics ~node ~executors ~fn_model ~dispatch_overhead
    ?(dispatch_jitter = 0) ?rng ?(intra = Fcfs) ~on_complete () =
  if executors < 1 then invalid_arg "Node_worker.create: need executors";
  if dispatch_jitter > 0 && rng = None then
    invalid_arg "Node_worker.create: jitter needs an rng";
  (match intra with
  | Processor_sharing { quantum; _ } when quantum <= 0 ->
    invalid_arg "Node_worker.create: quantum must be positive"
  | Processor_sharing _ | Fcfs -> ());
  {
    engine;
    metrics;
    node;
    fn_model;
    dispatch_overhead;
    dispatch_jitter;
    rng;
    intra;
    on_complete;
    queue = Queue.create ();
    free_executors = executors;
    tasks_executed = 0;
    occupancy = 0;
    preemptions = 0;
  }

let jitter t =
  match (t.rng, t.dispatch_jitter) with
  | Some rng, amount when amount > 0 -> Rng.int rng (amount + 1)
  | _ -> 0

let finish t item =
  t.tasks_executed <- t.tasks_executed + 1;
  t.occupancy <- t.occupancy - 1;
  t.free_executors <- t.free_executors + 1;
  Draconis.Metrics.note_exec_finish t.metrics item.task ~node:t.node ~port:(-1);
  t.on_complete item.task ~client:item.client

(* Centralized FCFS: the head task owns an executor to completion. *)
let rec dispatch_fcfs t =
  if t.free_executors > 0 then begin
    match Queue.take_opt t.queue with
    | None -> ()
    | Some item ->
      t.free_executors <- t.free_executors - 1;
      (* The intra-node scheduler costs a few microseconds per dispatch
         before the task starts executing. *)
      ignore
        (Engine.schedule t.engine ~after:(t.dispatch_overhead + jitter t) (fun () ->
             Draconis.Metrics.note_exec_start t.metrics item.task ~node:t.node ~port:(-1);
             ignore
               (Engine.schedule t.engine ~after:item.remaining (fun () ->
                    finish t item;
                    dispatch_fcfs t))));
      dispatch_fcfs t
  end

(* Processor sharing: round-robin time slices with preemption, so short
   tasks are never stuck behind long ones (the paper's heavy-tailed
   configuration, run via Shinjuku in the original). *)
let rec dispatch_ps t ~quantum ~overhead =
  if t.free_executors > 0 then begin
    match Queue.take_opt t.queue with
    | None -> ()
    | Some item ->
      t.free_executors <- t.free_executors - 1;
      let startup =
        if item.started then overhead else t.dispatch_overhead + jitter t
      in
      ignore
        (Engine.schedule t.engine ~after:startup (fun () ->
             if not item.started then begin
               item.started <- true;
               Draconis.Metrics.note_exec_start t.metrics item.task ~node:t.node
                 ~port:(-1)
             end;
             let slice = Int.min quantum item.remaining in
             ignore
               (Engine.schedule t.engine ~after:slice (fun () ->
                    item.remaining <- item.remaining - slice;
                    if item.remaining <= 0 then finish t item
                    else begin
                      t.preemptions <- t.preemptions + 1;
                      t.free_executors <- t.free_executors + 1;
                      Queue.add item t.queue
                    end;
                    dispatch_ps t ~quantum ~overhead))));
      dispatch_ps t ~quantum ~overhead
  end

let dispatch t =
  match t.intra with
  | Fcfs -> dispatch_fcfs t
  | Processor_sharing { quantum; overhead } -> dispatch_ps t ~quantum ~overhead

let deliver t task ~client =
  t.occupancy <- t.occupancy + 1;
  let remaining = Draconis.Fn_model.service_time t.fn_model task ~node:t.node in
  Queue.add { task; client; remaining; started = false } t.queue;
  dispatch t

let occupancy t = t.occupancy
let node t = t.node
let tasks_executed t = t.tasks_executed
let preemptions t = t.preemptions
