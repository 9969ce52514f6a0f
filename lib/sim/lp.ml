(* A logical process is an engine plus a stamped inbox.  The inbox is
   the only mutable state ever touched from another domain, so a plain
   mutex suffices: posts are rare relative to engine events (one per
   cross-LP message), and injection happens only at barriers, when no
   window is running. *)

type message = { at : Time.t; src : int; seq : int; fn : unit -> unit }

type t = {
  lp_id : int;
  engine : Engine.t;
  rng : Rng.t;
  mutex : Mutex.t;
  mutable inbox : message list;
  mutable floor : Time.t;
  mutable posted : int;
  mutable injected : int;
}

(* splitmix64-style finalizer over (seed, id): distinct LPs get
   decorrelated streams even for adjacent seeds. *)
let derive_seed seed id =
  let z = seed + ((id + 1) * 0x9E3779B97F4A7C1) in
  let z = (z lxor (z lsr 30)) * 0xBF58476D1CE4E5B in
  z lxor (z lsr 27)

let create ~id ~seed () =
  if id < 0 then invalid_arg "Lp.create: negative id";
  {
    lp_id = id;
    engine = Engine.create ();
    rng = Rng.create ~seed:(derive_seed seed id);
    mutex = Mutex.create ();
    inbox = [];
    floor = -1;
    posted = 0;
    injected = 0;
  }

let id t = t.lp_id
let engine t = t.engine
let rng t = t.rng

let post t ~at ~src ~seq fn =
  Mutex.lock t.mutex;
  if at <= t.floor then begin
    let floor = t.floor in
    Mutex.unlock t.mutex;
    invalid_arg
      (Printf.sprintf
         "Lp.post: stamp at=%d does not clear the safe horizon %d of LP %d (lookahead \
          violation)"
         at floor t.lp_id)
  end;
  t.inbox <- { at; src; seq; fn } :: t.inbox;
  t.posted <- t.posted + 1;
  Mutex.unlock t.mutex

let next_at t =
  Mutex.lock t.mutex;
  let inbox_min =
    List.fold_left
      (fun acc m -> match acc with Some a when a <= m.at -> acc | _ -> Some m.at)
      None t.inbox
  in
  Mutex.unlock t.mutex;
  match (Engine.next_at t.engine, inbox_min) with
  | None, m | m, None -> m
  | Some a, Some b -> Some (min a b)

let compare_stamp a b =
  let c = compare a.at b.at in
  if c <> 0 then c
  else
    let c = compare a.src b.src in
    if c <> 0 then c else compare a.seq b.seq

let inject t ~upto =
  (* Barrier phase: no concurrent posts, but take the lock anyway so the
     invariant does not depend on the caller's discipline. *)
  Mutex.lock t.mutex;
  let due, later = List.partition (fun m -> m.at <= upto) t.inbox in
  t.inbox <- later;
  Mutex.unlock t.mutex;
  match due with
  | [] -> ()
  | due ->
    let due = List.sort compare_stamp due in
    List.iter
      (fun m ->
        ignore (Engine.schedule_at t.engine ~at:m.at m.fn);
        t.injected <- t.injected + 1)
      due

let set_floor t at =
  Mutex.lock t.mutex;
  t.floor <- at;
  Mutex.unlock t.mutex

let posted t =
  Mutex.lock t.mutex;
  let n = t.posted in
  Mutex.unlock t.mutex;
  n

let injected t = t.injected

let inbox_length t =
  Mutex.lock t.mutex;
  let n = List.length t.inbox in
  Mutex.unlock t.mutex;
  n
