open Draconis_sim
open Draconis_net
open Draconis_proto
module Obs = Draconis_obs

type config = {
  node : int;
  port : int;
  rsrc : int;
  noop_retry : Time.t;
  fn_model : Fn_model.t;
  scheduler : Addr.t;
  watchdog : Time.t option;
}

type t = {
  config : config;
  fabric : Message.t Fabric.t;
  engine : Engine.t;
  addr : Addr.t;
  info : Message.executor_info;  (* rides every request and completion *)
  request : Message.t;  (* the pull request, built once: it never changes *)
  metrics : Metrics.t;
  mutable obs_track : string;  (* see [track] *)
  mutable busy : bool;
  mutable pending_fetch : (Task.t * Addr.t) option;
      (* a transmission-function task awaiting its parameters (§4.4) *)
  mutable stopped : bool;
  mutable epoch : int;  (* bumped on crash: the finish closure of a task
                           that was running when the executor died is a
                           no-op — the task just vanishes *)
  mutable slowdown : float;  (* straggler degradation factor, >= 1 *)
  mutable tasks_executed : int;
  mutable busy_time : Time.t;
  (* The watchdog: when the last pull request goes unanswered, or
     [disarmed] once a delivery answered it.  Its one pending expiry is
     never later than an armed deadline, and moves to it. *)
  mutable deadline : Time.t;
  mutable expiry_pending : bool;
  (* Preallocated engine thunks, set once by [create]: the no-op retry
     (and staggered start), and the watchdog expiry. *)
  mutable retry : unit -> unit;
  mutable expire : unit -> unit;
}

let disarmed = -1

let rec send_request t =
  if not t.stopped then begin
    Fabric.send t.fabric ~src:t.addr ~dst:t.config.scheduler t.request;
    match t.config.watchdog with
    | None -> ()
    | Some window ->
      t.deadline <- Engine.now t.engine + window;
      if not t.expiry_pending then begin
        t.expiry_pending <- true;
        ignore (Engine.schedule t.engine ~after:window t.expire)
      end
  end

and watchdog_expired t =
  let now = Engine.now t.engine in
  if t.deadline > now then ignore (Engine.schedule_at t.engine ~at:t.deadline t.expire)
  else begin
    t.expiry_pending <- false;
    if t.deadline = now && (not t.stopped) && not t.busy then send_request t
  end

let create ~config ~fabric ~metrics () =
  let addr = Addr.Host config.node in
  let info : Message.executor_info =
    {
      exec_addr = addr;
      exec_port = config.port;
      exec_rsrc = config.rsrc;
      exec_node = config.node;
    }
  in
  let t =
    {
      config;
      fabric;
      engine = Fabric.engine fabric;
      addr;
      info;
      request = Message.Task_request { info; rtrv_prio = 1 };
      metrics;
      obs_track = "";
      busy = false;
      pending_fetch = None;
      stopped = false;
      epoch = 0;
      slowdown = 1.0;
      tasks_executed = 0;
      busy_time = 0;
      deadline = disarmed;
      expiry_pending = false;
      retry = ignore;
      expire = ignore;
    }
  in
  t.retry <- (fun () -> send_request t);
  t.expire <- (fun () -> watchdog_expired t);
  t

(* The executor's recorder track, formatted on first use: only an
   installed recorder reads it, so building a cluster formats none. *)
let track t =
  if String.length t.obs_track = 0 then
    t.obs_track <- Printf.sprintf "exec %d:%d" t.config.node t.config.port;
  t.obs_track

let start ?(after = 0) t =
  if after = 0 then send_request t else ignore (Engine.schedule t.engine ~after t.retry)

let stop t = t.stopped <- true

let set_slowdown t factor =
  if factor < 1.0 || Float.is_nan factor then
    invalid_arg "Executor.set_slowdown: factor must be >= 1.0";
  t.slowdown <- factor

let slowdown t = t.slowdown

let crash t =
  if not t.stopped then begin
    if Obs.Recorder.active () then begin
      let now = Engine.now t.engine in
      (* Close the in-flight task span so every B has a matching E. *)
      if t.busy then Obs.Recorder.end_span ~at:now ~track:(track t) "task";
      Obs.Recorder.mark ~at:now ~track:(track t) "crash"
    end
  end;
  t.stopped <- true;
  t.busy <- false;
  t.pending_fetch <- None;
  t.epoch <- t.epoch + 1

let restart t =
  if t.stopped then begin
    if Obs.Recorder.active () then
      Obs.Recorder.mark ~at:(Engine.now t.engine) ~track:(track t) "restart";
    t.stopped <- false;
    send_request t
  end

let rec execute t (task : Task.t) ~client =
  t.busy <- true;
  if task.fn_id = Task.Fn.fetch_params && t.pending_fetch = None then begin
    (* Transmission function (§4.4): fetch the real parameters from the
       submitting client before running. *)
    t.pending_fetch <- Some (task, client);
    Fabric.send t.fabric ~src:t.addr ~dst:client
      (Message.Param_fetch { task_id = task.id; node = t.config.node; port = t.config.port })
  end
  else run t task ~client

and run t (task : Task.t) ~client =
  Metrics.note_exec_start t.metrics task ~node:t.config.node ~port:t.config.port;
  if Obs.Recorder.active () then
    Obs.Recorder.begin_span ~at:(Engine.now t.engine) ~track:(track t) "task";
  let service = Fn_model.service_time t.config.fn_model task ~node:t.config.node in
  let service =
    if t.slowdown = 1.0 then service
    else int_of_float (Float.round (float_of_int service *. t.slowdown))
  in
  let epoch = t.epoch in
  let finish () =
    if epoch = t.epoch then begin
      t.busy <- false;
      t.tasks_executed <- t.tasks_executed + 1;
      t.busy_time <- t.busy_time + service;
      Metrics.note_exec_finish t.metrics task ~node:t.config.node ~port:t.config.port;
      if Obs.Recorder.active () then
        Obs.Recorder.end_span ~at:(Engine.now t.engine) ~track:(track t) "task";
      Obs.Recorder.record "exec.service_ns" service;
      if not t.stopped then begin
        if task.fn_id = Task.Fn.noop then
          (* No-op tasks are dropped without a reply; just pull the next
             one (the paper's throughput-workload behaviour, §8.2). *)
          send_request t
        else
          (* Completion to the client via the scheduler, with the next
             task request piggybacked (§3.1). *)
          Fabric.send t.fabric ~src:t.addr ~dst:t.config.scheduler
            (Message.Task_completion
               { task_id = task.id; client; info = t.info; rtrv_prio = 1 })
      end
    end
  in
  if service = 0 then finish ()
  else ignore (Engine.schedule t.engine ~after:service finish)

(* 100 Gbps parameter transfer: ~0.08 ns/byte on the wire. *)
let transfer_time ~size = size * 8 / 100

let deliver t (msg : Message.t) =
  if not t.stopped then begin
    t.deadline <- disarmed;
    match msg with
    | Task_assignment { task; client; port = _ } -> execute t task ~client
    | Noop_assignment _ ->
      ignore (Engine.schedule t.engine ~after:t.config.noop_retry t.retry)
    | Param_data { task_id; size; port = _ } -> (
      match t.pending_fetch with
      | Some (task, client) when Task.equal_id task.id task_id ->
        t.pending_fetch <- None;
        let epoch = t.epoch in
        ignore
          (Engine.schedule t.engine ~after:(transfer_time ~size) (fun () ->
               if epoch = t.epoch then run t task ~client))
      | Some _ | None -> ())
    | Job_submission _ | Job_ack _ | Queue_full _ | Task_request _ | Task_completion _
    | Param_fetch _ ->
      (* Not executor traffic; ignore (a real executor's UDP socket
         would never see these). *)
      ()
  end

let config t = t.config
let busy t = t.busy
let stopped t = t.stopped
let tasks_executed t = t.tasks_executed
let busy_time t = t.busy_time
