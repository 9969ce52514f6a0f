(* A logical process is an engine plus a stamped inbox.  The inbox is
   the only mutable state ever touched from another domain, so a plain
   mutex suffices: posts are rare relative to engine events (one per
   cross-LP message), and injection happens only at barriers, when no
   window is running.

   The inbox is four parallel arrays, one slot per message, in post
   order: a post writes four slots and allocates nothing beyond the
   occasional doubling. *)

type t = {
  lp_id : int;
  engine : Engine.t;
  rng : Rng.t;
  mutex : Mutex.t;
  mutable at : Time.t array;
  mutable src : int array;
  mutable seq : int array;
  mutable fns : (unit -> unit) array;
  mutable len : int;
  (* [inject]'s scratch: the slots it found due, sorted in place, then
     their stamps and closures in that order. *)
  mutable due : int array;
  mutable due_at : Time.t array;
  mutable due_fns : (unit -> unit) array;
  mutable floor : Time.t;
  mutable posted : int;
  mutable injected : int;
}

let initial_capacity = 64
let noop () = ()

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
    at = Array.make initial_capacity 0;
    src = Array.make initial_capacity 0;
    seq = Array.make initial_capacity 0;
    fns = Array.make initial_capacity noop;
    len = 0;
    due = Array.make initial_capacity 0;
    due_at = Array.make initial_capacity 0;
    due_fns = Array.make initial_capacity noop;
    floor = -1;
    posted = 0;
    injected = 0;
  }

let id t = t.lp_id
let engine t = t.engine
let rng t = t.rng

let grow t =
  let cap = 2 * Array.length t.at in
  let widen a fill =
    let b = Array.make cap fill in
    Array.blit a 0 b 0 t.len;
    b
  in
  t.at <- widen t.at 0;
  t.src <- widen t.src 0;
  t.seq <- widen t.seq 0;
  t.fns <- widen t.fns noop;
  t.due <- Array.make cap 0;
  t.due_at <- Array.make cap 0;
  t.due_fns <- Array.make cap noop

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
  if t.len = Array.length t.at then grow t;
  let i = t.len in
  t.at.(i) <- at;
  t.src.(i) <- src;
  t.seq.(i) <- seq;
  t.fns.(i) <- fn;
  t.len <- i + 1;
  t.posted <- t.posted + 1;
  Mutex.unlock t.mutex

let rec inbox_min (at : Time.t array) len i m =
  if i = len then m
  else inbox_min at len (i + 1) (if at.(i) < m then at.(i) else m)

let next_at t =
  Mutex.lock t.mutex;
  let len = t.len in
  let m = if len = 0 then 0 else inbox_min t.at len 1 t.at.(0) in
  Mutex.unlock t.mutex;
  match Engine.next_at t.engine with
  | None -> if len = 0 then None else Some m
  | Some a as next -> if len = 0 || a <= m then next else Some m

(* Slot [i] injects before slot [j]: stamp order, then post order (the
   contract makes stamps unique; the last key only keeps the order
   total). *)
let before t i j =
  let ai = t.at.(i) and aj = t.at.(j) in
  if ai <> aj then ai < aj
  else
    let si = t.src.(i) and sj = t.src.(j) in
    if si <> sj then si < sj
    else
      let qi = t.seq.(i) and qj = t.seq.(j) in
      if qi <> qj then qi < qj else i < j

(* In-place heapsort of [due.(0 .. n-1)]: O(n log n), no allocation. *)
let rec sift_down t due n root =
  let child = (2 * root) + 1 in
  if child < n then begin
    let child =
      if child + 1 < n && before t due.(child) due.(child + 1) then child + 1 else child
    in
    if before t due.(root) due.(child) then begin
      let r = due.(root) in
      due.(root) <- due.(child);
      due.(child) <- r;
      sift_down t due n child
    end
  end

let sort_due t n =
  let due = t.due in
  for root = (n / 2) - 1 downto 0 do
    sift_down t due n root
  done;
  for last = n - 1 downto 1 do
    let top = due.(0) in
    due.(0) <- due.(last);
    due.(last) <- top;
    sift_down t due last 0
  done

let inject t ~upto =
  (* Barrier phase: no concurrent posts, but take the lock anyway so the
     invariant does not depend on the caller's discipline. *)
  Mutex.lock t.mutex;
  let n = ref 0 in
  for i = 0 to t.len - 1 do
    if t.at.(i) <= upto then begin
      t.due.(!n) <- i;
      incr n
    end
  done;
  let n = !n in
  if n > 0 then begin
    sort_due t n;
    for k = 0 to n - 1 do
      let i = t.due.(k) in
      t.due_at.(k) <- t.at.(i);
      t.due_fns.(k) <- t.fns.(i)
    done;
    (* Compact the slots not yet due, keeping their post order. *)
    let kept = ref 0 in
    for i = 0 to t.len - 1 do
      if t.at.(i) > upto then begin
        let k = !kept in
        t.at.(k) <- t.at.(i);
        t.src.(k) <- t.src.(i);
        t.seq.(k) <- t.seq.(i);
        t.fns.(k) <- t.fns.(i);
        kept := k + 1
      end
    done;
    Array.fill t.fns !kept (t.len - !kept) noop;
    t.len <- !kept
  end;
  Mutex.unlock t.mutex;
  for k = 0 to n - 1 do
    let fn = t.due_fns.(k) in
    t.due_fns.(k) <- noop;
    ignore (Engine.schedule_at t.engine ~at:t.due_at.(k) fn);
    t.injected <- t.injected + 1
  done

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
  let n = t.len in
  Mutex.unlock t.mutex;
  n
