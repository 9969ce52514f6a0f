open Draconis_sim
open Draconis_net
open Draconis_proto
module Obs = Draconis_obs

type config = {
  host : int;
  uid : int;
  retry_delay : Time.t;
  timeout : Time.t option;
  max_resubmissions : int;
  schedulers : Addr.t array;
  param_size : int;
}

let default_config ~host ~uid =
  {
    host;
    uid;
    retry_delay = Time.us 50;
    timeout = None;
    max_resubmissions = 3;
    schedulers = [| Addr.Switch |];
    param_size = 0;
  }

(* A task the client has sent and not yet retired, with the number of
   timeout resubmissions it has used so far. *)
type pending = { task : Task.t; mutable tries : int }

type t = {
  config : config;
  fabric : Message.t Fabric.t;
  engine : Engine.t;
  metrics : Metrics.t;
  addr : Addr.t;
  obs_track : string;  (* cached so the disabled path never formats *)
  outstanding : pending Task.Tbl.t;
  mutable next_jid : int;
  mutable tasks_submitted : int;
  mutable completions : int;
  mutable resubmitted : int;
  mutable abandoned : int;
  mutable queue_full_bounces : int;
}

let scheduler_for t ~jid =
  t.config.schedulers.(jid mod Array.length t.config.schedulers)

let rec send_chunks t ~jid tasks =
  match tasks with
  | [] -> ()
  | _ :: _ ->
    let rec take n acc rest =
      match (n, rest) with
      | 0, _ | _, [] -> (List.rev acc, rest)
      | n, x :: rest -> take (n - 1) (x :: acc) rest
    in
    let chunk, rest = take Codec.max_tasks_per_packet [] tasks in
    Metrics.note_sent t.metrics chunk;
    Fabric.send t.fabric ~src:t.addr ~dst:(scheduler_for t ~jid)
      (Message.Job_submission
         { client = t.addr; uid = t.config.uid; jid; tasks = chunk });
    send_chunks t ~jid rest

let arm_timeout t (task : Task.t) =
  match t.config.timeout with
  | None -> ()
  | Some timeout ->
    let rec check () =
      match Task.Tbl.find_opt t.outstanding task.id with
      | None -> ()
      | Some pending ->
        if pending.tries < t.config.max_resubmissions then begin
          pending.tries <- pending.tries + 1;
          t.resubmitted <- t.resubmitted + 1;
          Obs.Recorder.mark ~at:(Engine.now t.engine) ~track:t.obs_track "resubmit";
          Metrics.note_resubmit t.metrics task.id;
          send_chunks t ~jid:task.id.jid [ task ];
          ignore (Engine.schedule t.engine ~after:timeout check)
        end
        else begin
          (* Resubmission budget exhausted: give the task up so the
             client can drain instead of retrying forever.  A straggling
             completion for it is ignored (the outstanding check in
             [handle_completion]). *)
          Task.Tbl.remove t.outstanding task.id;
          t.abandoned <- t.abandoned + 1;
          Obs.Recorder.mark ~at:(Engine.now t.engine) ~track:t.obs_track "abandon"
        end
    in
    ignore (Engine.schedule t.engine ~after:timeout check)

let handle_queue_full t tasks =
  t.queue_full_bounces <- t.queue_full_bounces + List.length tasks;
  ignore
    (Engine.schedule t.engine ~after:t.config.retry_delay (fun () ->
         (* Retry only tasks still outstanding (a timeout resubmission
            may have completed them meanwhile). *)
         let pending =
           List.filter (fun (task : Task.t) -> Task.Tbl.mem t.outstanding task.id) tasks
         in
         match pending with
         | [] -> ()
         | first :: _ -> send_chunks t ~jid:first.id.jid pending))

let handle_completion t (task_id : Task.id) =
  match Task.Tbl.find_opt t.outstanding task_id with
  | None -> ()
  | Some pending ->
    Task.Tbl.remove t.outstanding task_id;
    t.completions <- t.completions + 1;
    Metrics.note_complete t.metrics task_id ~resubmitted:(pending.tries > 0)

let create ~config ~fabric ~metrics () =
  let t =
    {
      config;
      fabric;
      engine = Fabric.engine fabric;
      metrics;
      addr = Addr.Host config.host;
      obs_track = Printf.sprintf "client %d" config.uid;
      outstanding = Task.Tbl.create 1024;
      next_jid = 0;
      tasks_submitted = 0;
      completions = 0;
      resubmitted = 0;
      abandoned = 0;
      queue_full_bounces = 0;
    }
  in
  Fabric.register fabric t.addr (fun env ->
      match env.Fabric.payload with
      | Message.Queue_full { tasks; _ } -> handle_queue_full t tasks
      | Message.Task_completion { task_id; _ } -> handle_completion t task_id
      | Message.Param_fetch { task_id; node; port } ->
        (* Serve the stored parameters of a transmission-function task
           (§4.4) straight back to the requesting executor. *)
        Fabric.send t.fabric ~src:t.addr ~dst:(Addr.Host node)
          (Message.Param_data { task_id; port; size = t.config.param_size })
      | Message.Job_ack _ -> ()
      | Message.Job_submission _ | Message.Task_request _ | Message.Task_assignment _
      | Message.Noop_assignment _ | Message.Param_data _ ->
        ());
  t

let submit_job t tasks =
  (match tasks with [] -> invalid_arg "Client.submit_job: empty job" | _ :: _ -> ());
  let jid = t.next_jid in
  t.next_jid <- t.next_jid + 1;
  let tasks =
    List.mapi
      (fun tid (task : Task.t) ->
        { task with id = { uid = t.config.uid; jid; tid } })
      tasks
  in
  t.tasks_submitted <- t.tasks_submitted + List.length tasks;
  List.iter
    (fun (task : Task.t) ->
      Task.Tbl.replace t.outstanding task.id { task; tries = 0 };
      Metrics.note_submit t.metrics task.id;
      arm_timeout t task)
    tasks;
  send_chunks t ~jid tasks;
  jid

let config t = t.config
let addr t = t.addr
let engine t = t.engine
let outstanding t = Task.Tbl.length t.outstanding
let tasks_submitted t = t.tasks_submitted
let completions t = t.completions
let resubmitted t = t.resubmitted
let abandoned t = t.abandoned
let queue_full_bounces t = t.queue_full_bounces
