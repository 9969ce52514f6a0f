open Draconis_sim
open Draconis_proto
open Draconis_net

type t = { node : int; engine : Engine.t; executors : Executor.t array }

let create ~node ~executors ~fabric ~metrics ~make_config () =
  if executors < 1 then invalid_arg "Worker.create: need at least one executor";
  let t =
    {
      node;
      engine = Fabric.engine fabric;
      executors =
        Array.init executors (fun port ->
            Executor.create ~config:(make_config ~port) ~fabric ~metrics ());
    }
  in
  Fabric.register fabric (Addr.Host node) (fun env ->
      match env.Fabric.payload with
      | Message.Task_assignment { port; _ } as msg
      | (Message.Noop_assignment { port } as msg)
      | (Message.Param_data { port; _ } as msg) ->
        if port >= 0 && port < Array.length t.executors then
          Executor.deliver t.executors.(port) msg
      | Message.Job_submission _ | Message.Job_ack _ | Message.Queue_full _
      | Message.Task_request _ | Message.Task_completion _ | Message.Param_fetch _ ->
        ());
  t

let start t ~stagger =
  Array.iteri (fun i exec -> Executor.start ~after:(i * stagger) exec) t.executors

let stop t = Array.iter Executor.stop t.executors

let crash t = Array.iter Executor.crash t.executors

let restart t ~stagger =
  Array.iteri
    (fun i exec ->
      if i = 0 then Executor.restart exec
      else
        ignore
          (Engine.schedule t.engine ~after:(i * stagger) (fun () ->
               Executor.restart exec)))
    t.executors

let set_slowdown t factor = Array.iter (fun e -> Executor.set_slowdown e factor) t.executors
let node t = t.node
let engine t = t.engine

let executor t i =
  if i < 0 || i >= Array.length t.executors then invalid_arg "Worker.executor: bad index";
  t.executors.(i)

let executor_count t = Array.length t.executors
let iter_executors t f = Array.iter f t.executors

let tasks_executed t =
  Array.fold_left (fun acc exec -> acc + Executor.tasks_executed exec) 0 t.executors

let busy_time t =
  Array.fold_left (fun acc exec -> acc + Executor.busy_time exec) 0 t.executors
