open Draconis_sim

type t = {
  engine : Engine.t;
  mutable free_at : Time.t;
  mutable slowdown : float;
  mutable backlog : int;
  mutable completed : int;
  mutable busy : Time.t;
}

let create engine =
  { engine; free_at = 0; slowdown = 1.0; backlog = 0; completed = 0; busy = 0 }

let set_slowdown t factor =
  if factor < 1.0 || Float.is_nan factor then
    invalid_arg "Cpu.set_slowdown: factor must be >= 1.0";
  t.slowdown <- factor

let slowdown t = t.slowdown

let submit t ~cost k =
  if cost < 0 then invalid_arg "Cpu.submit: negative cost";
  let cost =
    if t.slowdown = 1.0 then cost
    else int_of_float (Float.round (float_of_int cost *. t.slowdown))
  in
  let now = Engine.now t.engine in
  let start = Int.max now t.free_at in
  let finish = start + cost in
  t.free_at <- finish;
  t.backlog <- t.backlog + 1;
  t.busy <- t.busy + cost;
  ignore
    (Engine.schedule_at t.engine ~at:finish (fun () ->
         t.backlog <- t.backlog - 1;
         t.completed <- t.completed + 1;
         k ()))

let backlog t = t.backlog
let completed t = t.completed
let busy_time t = t.busy

let utilization t ~over =
  if over <= 0 then invalid_arg "Cpu.utilization: non-positive window";
  float_of_int t.busy /. float_of_int over
