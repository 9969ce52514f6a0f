open Draconis_sim
open Draconis_net

(* One plan edge: an event's start, or the end of its window.  [fired]
   is written once, by the edge's own event on the engine that owns
   what it touches, so a sharded run never writes one injector cell
   from two domains; readers look after the run. *)
type edge = {
  at : Time.t;
  ending : bool;  (* closes a window: fires after same-time starts *)
  engine : Engine.t;
  fire : unit -> string * int option;  (* note; queued tasks lost, for a fail-over *)
  mutable fired : (string * int option) option;
}

type t = { target : Target.t; edges : edge list }

let validate plan (target : Target.t) =
  let fail fmt = Printf.ksprintf invalid_arg ("Injector.arm: " ^^ fmt) in
  let check_node what node =
    if node >= target.nodes then
      fail "%s node %d outside [0, %d) on target %s" what node target.nodes target.name
  in
  List.iter
    (fun { Plan.at = _; event } ->
      match event with
      | Plan.Crash _ when not target.supports_crash ->
        fail "plan uses crash but target %s does not support it" target.name
      | Plan.Straggler _ when not target.supports_straggler ->
        fail "plan uses straggler but target %s does not support it" target.name
      | Plan.Crash { node; _ } -> check_node "crash" node
      | Plan.Straggler { node; _ } -> check_node "straggler" node
      | Plan.Partition { hosts; _ } ->
        List.iter
          (fun h ->
            if h >= target.hosts then
              fail "partition host %d outside [0, %d) on target %s" h target.hosts
                target.name)
          hosts
      | Plan.Switch_failover | Plan.Loss_burst _ -> ())
    (Plan.events plan)

(* The plan's loss and cut windows: the fabric checks them on every
   send, so burst and partition edges only record that they fired. *)
let windows plan =
  List.filter_map
    (fun { Plan.at; event } ->
      match event with
      | Plan.Loss_burst { duration; loss } ->
        Some { Fabric.start = at; stop = at + duration; fault = Fabric.Loss loss }
      | Plan.Partition { hosts; duration } ->
        Some { Fabric.start = at; stop = at + duration; fault = Fabric.Cut hosts }
      | Plan.Switch_failover | Plan.Crash _ | Plan.Straggler _ -> None)
    (Plan.events plan)

(* Node [node]'s slowdown at [at]: the maximum factor over its straggler
   windows containing [at], so overlapping windows compose by max. *)
let slowdown_at plan node at =
  List.fold_left
    (fun acc { Plan.at = a; event } ->
      match event with
      | Plan.Straggler { node = n; factor; duration }
        when n = node && at >= a && at < a + duration ->
        Float.max acc factor
      | _ -> acc)
    1.0 (Plan.events plan)

(* Every edge, in firing order: (time, starts before ends, plan order). *)
let edges plan (target : Target.t) =
  let edge ?(ending = false) at engine fire = { at; ending; engine; fire; fired = None } in
  let window at duration engine start stop =
    [ edge at engine start; edge ~ending:true (at + duration) engine stop ]
  in
  let note fmt = Printf.ksprintf (fun s () -> (s, None)) fmt in
  List.concat_map
    (fun { Plan.at; event } ->
      match event with
      | Plan.Switch_failover ->
        [
          edge at target.engine (fun () ->
              let lost = target.failover () in
              (Printf.sprintf "failover (%d queued lost)" lost, Some lost));
        ]
      | Plan.Crash { node; down_for = None } ->
        [
          edge at (target.node_engine node) (fun () ->
              target.crash_node node;
              note "crash node %d (permanent)" node ());
        ]
      | Plan.Crash { node; down_for = Some d } ->
        window at d (target.node_engine node)
          (fun () ->
            target.crash_node node;
            note "crash node %d (down %.0f us)" node (Time.to_us d) ())
          (fun () ->
            target.restart_node node;
            note "restart node %d" node ())
      | Plan.Loss_burst { duration; loss } ->
        window at duration target.engine
          (note "loss burst start (p=%.3f)" loss)
          (note "loss burst end (p=%.3f)" loss)
      | Plan.Partition { hosts; duration } ->
        let hosts = String.concat "+" (List.map string_of_int hosts) in
        window at duration target.engine (note "partition hosts %s" hosts)
          (note "heal hosts %s" hosts)
      | Plan.Straggler { node; factor; duration } ->
        let set at = target.set_slowdown node (slowdown_at plan node at) in
        window at duration (target.node_engine node)
          (fun () ->
            set at;
            note "straggler node %d (x%.1f)" node factor ())
          (fun () ->
            set (at + duration);
            note "straggler node %d recovered" node ()))
    (Plan.events plan)
  |> List.stable_sort (fun a b -> compare (a.at, a.ending) (b.at, b.ending))

let arm plan target =
  validate plan target;
  let edges = edges plan target in
  List.iter
    (fun e ->
      if e.at < Engine.now e.engine then
        invalid_arg
          (Format.asprintf "Injector.arm: plan edge at %a lies in the past on target %s"
             Time.pp e.at target.Target.name))
    edges;
  (match windows plan with [] -> () | ws -> target.Target.set_windows ws);
  List.iter
    (fun e ->
      ignore
        (Engine.schedule_at e.engine ~at:e.at (fun () ->
             let ((what, _) as fired) = e.fire () in
             e.fired <- Some fired;
             Draconis_obs.Recorder.mark ~at:e.at ~track:"fault" what)))
    edges;
  { target; edges }

let target t = t.target

let fired t =
  List.filter_map (fun e -> Option.map (fun (what, _) -> (e.at, what)) e.fired) t.edges

let failovers t =
  List.filter_map
    (fun e -> match e.fired with Some (_, Some lost) -> Some (e.at, lost) | _ -> None)
    t.edges

let first_failover t =
  match failovers t with [] -> None | (at, _) :: _ -> Some at

let queued_lost t = List.fold_left (fun acc (_, lost) -> acc + lost) 0 (failovers t)
