open Draconis_sim
open Draconis_net
open Draconis_proto

type pending = { task : Task.t; client : Addr.t }

type t = {
  engine : Engine.t;
  metrics : Draconis.Metrics.t;
  node : int;
  port : int;
  fn_model : Draconis.Fn_model.t;
  on_complete : Task.t -> client:Addr.t -> unit;
  queue : pending Queue.t;
  mutable busy : bool;
  mutable tasks_executed : int;
}

let create ~engine ~metrics ~node ~port ~fn_model ~on_complete () =
  {
    engine;
    metrics;
    node;
    port;
    fn_model;
    on_complete;
    queue = Queue.create ();
    busy = false;
    tasks_executed = 0;
  }

let rec run_next t =
  match Queue.take_opt t.queue with
  | None -> t.busy <- false
  | Some { task; client } ->
    t.busy <- true;
    Draconis.Metrics.note_exec_start t.metrics task ~node:t.node ~port:t.port;
    let service = Draconis.Fn_model.service_time t.fn_model task ~node:t.node in
    let finish () =
      t.tasks_executed <- t.tasks_executed + 1;
      Draconis.Metrics.note_exec_finish t.metrics task ~node:t.node ~port:t.port;
      t.on_complete task ~client;
      run_next t
    in
    if service = 0 then finish ()
    else ignore (Engine.schedule t.engine ~after:service finish)

let push t task ~client =
  Queue.add { task; client } t.queue;
  if not t.busy then run_next t

let try_steal t =
  (* Steal from the queue's tail: the task that would otherwise wait the
     longest behind this executor. *)
  match List.rev (List.of_seq (Queue.to_seq t.queue)) with
  | [] -> None
  | newest :: older_rev ->
    Queue.clear t.queue;
    List.iter (fun item -> Queue.add item t.queue) (List.rev older_rev);
    Some (newest.task, newest.client)

let occupancy t = Queue.length t.queue + if t.busy then 1 else 0
let busy t = t.busy
let node t = t.node
let port t = t.port
let tasks_executed t = t.tasks_executed
