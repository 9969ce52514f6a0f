open Draconis_sim

type t = {
  target : Target.t;
  mutable fired : (Time.t * string) list; (* newest first *)
  mutable failovers : (Time.t * int) list; (* newest first *)
  mutable bursts : float list; (* loss of each active burst window *)
  stragglers : (int, float list) Hashtbl.t; (* node -> active factors *)
}

let rec remove_one x = function
  | [] -> []
  | y :: rest -> if y = x then rest else y :: remove_one x rest

let note t what =
  let at = Engine.now t.target.Target.engine in
  t.fired <- (at, what) :: t.fired;
  Draconis_obs.Recorder.mark ~at ~track:"fault" what

let apply_bursts t =
  match t.bursts with
  | [] -> t.target.Target.set_loss_override None
  | losses ->
    t.target.Target.set_loss_override (Some (List.fold_left max 0.0 losses))

let apply_straggler t node =
  let factors = Option.value ~default:[] (Hashtbl.find_opt t.stragglers node) in
  t.target.Target.set_slowdown node (List.fold_left max 1.0 factors)

let fire t (event : Plan.event) =
  let engine = t.target.Target.engine in
  match event with
  | Plan.Switch_failover ->
    let lost = t.target.Target.failover () in
    t.failovers <- (Engine.now engine, lost) :: t.failovers;
    note t (Printf.sprintf "failover (%d queued lost)" lost)
  | Plan.Crash { node; down_for } ->
    t.target.Target.crash_node node;
    note t
      (Printf.sprintf "crash node %d%s" node
         (match down_for with
         | None -> " (permanent)"
         | Some d -> Printf.sprintf " (down %.0f us)" (Time.to_us d)));
    (match down_for with
    | None -> ()
    | Some d ->
      ignore
        (Engine.schedule engine ~after:d (fun () ->
             t.target.Target.restart_node node;
             note t (Printf.sprintf "restart node %d" node))))
  | Plan.Loss_burst { duration; loss } ->
    t.bursts <- loss :: t.bursts;
    apply_bursts t;
    note t (Printf.sprintf "loss burst start (p=%.3f)" loss);
    ignore
      (Engine.schedule engine ~after:duration (fun () ->
           t.bursts <- remove_one loss t.bursts;
           apply_bursts t;
           note t (Printf.sprintf "loss burst end (p=%.3f)" loss)))
  | Plan.Partition { hosts; duration } ->
    t.target.Target.partition hosts;
    let hosts_str = String.concat "+" (List.map string_of_int hosts) in
    note t (Printf.sprintf "partition hosts %s" hosts_str);
    ignore
      (Engine.schedule engine ~after:duration (fun () ->
           t.target.Target.heal hosts;
           note t (Printf.sprintf "heal hosts %s" hosts_str)))
  | Plan.Straggler { node; factor; duration } ->
    Hashtbl.replace t.stragglers node
      (factor :: Option.value ~default:[] (Hashtbl.find_opt t.stragglers node));
    apply_straggler t node;
    note t (Printf.sprintf "straggler node %d (x%.1f)" node factor);
    ignore
      (Engine.schedule engine ~after:duration (fun () ->
           Hashtbl.replace t.stragglers node
             (remove_one factor
                (Option.value ~default:[] (Hashtbl.find_opt t.stragglers node)));
           apply_straggler t node;
           note t (Printf.sprintf "straggler node %d recovered" node)))

let validate plan (target : Target.t) =
  List.iter
    (fun { Plan.at = _; event } ->
      match event with
      | Plan.Crash _ when not target.supports_crash ->
        invalid_arg
          (Printf.sprintf
             "Injector.arm: plan uses crash but target %s does not support it"
             target.name)
      | Plan.Straggler _ when not target.supports_straggler ->
        invalid_arg
          (Printf.sprintf
             "Injector.arm: plan uses straggler but target %s does not support it"
             target.name)
      | _ -> ())
    (Plan.events plan)

let arm plan target =
  validate plan target;
  let t =
    { target; fired = []; failovers = []; bursts = []; stragglers = Hashtbl.create 8 }
  in
  List.iter
    (fun { Plan.at; event } ->
      ignore (Engine.schedule_at target.Target.engine ~at (fun () -> fire t event)))
    (Plan.events plan);
  t

let target t = t.target
let fired t = List.rev t.fired
let failovers t = List.rev t.failovers

let first_failover t =
  match List.rev t.failovers with [] -> None | (at, _) :: _ -> Some at

let queued_lost t = List.fold_left (fun acc (_, lost) -> acc + lost) 0 t.failovers
