(* Event keys are packed into a single immediate int,
   [at lsl seq_bits lor seq], so the queue never allocates per event and
   orders by (time, scheduling order) with one machine comparison.  The
   sequence field must stay below [seq_limit] for the packing to sort
   correctly; since the counter is monotone across the whole run, the
   queue is renumbered (ties keep their order, pending count is tiny
   compared to the counter) whenever the counter would overflow.

   Handles are packed ints too: a slot index into a pooled slab of
   per-event state (closure, flag byte, generation) plus a generation
   snapshot.  Slots recycle through a freelist when their queue entry is
   consumed, so steady-state schedule/cancel/step allocate nothing; the
   generation in the token guards a caller cancelling a handle whose
   slot has since been handed to a newer event. *)

let seq_bits = 21
let seq_limit = 1 lsl seq_bits
let max_at = max_int asr seq_bits

(* Handle tokens: [gen lsl idx_bits lor idx]. *)
let idx_bits = 24
let idx_mask = (1 lsl idx_bits) - 1
let gen_mask = max_int lsr idx_bits

type handle = int

let flag_pending = '\001'
let flag_fired = '\002'
let flag_cancelled = '\003'

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable executed : int;
  queue : Wheel.t;
  (* handle slab: parallel arrays indexed by slot *)
  mutable fns : (unit -> unit) array;
  mutable gens : int array;
  mutable flags : Bytes.t;
  mutable free : int array;  (* stack of recycled slot indices *)
  mutable free_top : int;
  mutable slab_used : int;  (* slots ever handed out *)
}

let pack ~at ~seq = (at lsl seq_bits) lor seq
let key_at key = key asr seq_bits

let noop () = ()

let create () =
  let cap = 256 in
  {
    clock = 0;
    seq = 0;
    executed = 0;
    queue = Wheel.create ~shift:seq_bits ();
    fns = Array.make cap noop;
    gens = Array.make cap 0;
    flags = Bytes.make cap flag_fired;
    free = Array.make cap 0;
    free_top = 0;
    slab_used = 0;
  }

let now t = t.clock
let executed t = t.executed
let pending t = Wheel.length t.queue

let next_at t =
  match Wheel.peek_key t.queue with
  | exception Not_found -> None
  | key -> Some (key_at key)

(* -- handle slab ----------------------------------------------------------- *)

let slab_grow t =
  let cap = Array.length t.gens in
  if 2 * cap > idx_mask + 1 then
    invalid_arg "Engine: more than 2^24 events pending";
  let fns = Array.make (2 * cap) noop in
  let gens = Array.make (2 * cap) 0 in
  let flags = Bytes.make (2 * cap) flag_fired in
  let free = Array.make (2 * cap) 0 in
  Array.blit t.fns 0 fns 0 cap;
  Array.blit t.gens 0 gens 0 cap;
  Bytes.blit t.flags 0 flags 0 cap;
  Array.blit t.free 0 free 0 cap;
  t.fns <- fns;
  t.gens <- gens;
  t.flags <- flags;
  t.free <- free

let slab_alloc t fn =
  let idx =
    if t.free_top > 0 then begin
      t.free_top <- t.free_top - 1;
      t.free.(t.free_top)
    end
    else begin
      if t.slab_used >= Array.length t.gens then slab_grow t;
      let i = t.slab_used in
      t.slab_used <- i + 1;
      i
    end
  in
  t.fns.(idx) <- fn;
  Bytes.unsafe_set t.flags idx flag_pending;
  let g = (t.gens.(idx) + 1) land gen_mask in
  t.gens.(idx) <- g;
  (g lsl idx_bits) lor idx

(* Called exactly once per slot, when its queue entry is consumed. *)
let slab_release t idx ~flag =
  Bytes.unsafe_set t.flags idx flag;
  t.fns.(idx) <- noop;
  t.free.(t.free_top) <- idx;
  t.free_top <- t.free_top + 1

(* -- scheduling ------------------------------------------------------------ *)

let renumber t =
  let count = pending t in
  let keys = Array.make (max 1 count) 0 in
  let toks = Array.make (max 1 count) 0 in
  let live = ref 0 in
  (* Drop cancelled entries while renumbering: their slots recycle now
     instead of at their (never-observable) pop. *)
  Wheel.drain t.queue (fun key tok ->
      let idx = tok land idx_mask in
      if Bytes.get t.flags idx = flag_pending then begin
        keys.(!live) <- key;
        toks.(!live) <- tok;
        incr live
      end
      else slab_release t idx ~flag:flag_cancelled);
  for seq = 0 to !live - 1 do
    Wheel.push t.queue (pack ~at:(key_at keys.(seq)) ~seq) toks.(seq)
  done;
  t.seq <- !live

let schedule_at t ~at f =
  if at < t.clock then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: at=%d is before now=%d" at t.clock);
  if at > max_at then
    invalid_arg
      (Printf.sprintf "Engine.schedule_at: at=%d exceeds the representable horizon %d"
         at max_at);
  if t.seq >= seq_limit then renumber t;
  let tok = slab_alloc t f in
  Wheel.push t.queue (pack ~at ~seq:t.seq) tok;
  t.seq <- t.seq + 1;
  tok

let schedule t ~after f =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.clock + after) f

let cancel t h =
  let idx = h land idx_mask in
  if t.gens.(idx) = h lsr idx_bits && Bytes.get t.flags idx = flag_pending then
    Bytes.set t.flags idx flag_cancelled

let cancelled t h =
  let idx = h land idx_mask in
  t.gens.(idx) = h lsr idx_bits && Bytes.get t.flags idx = flag_cancelled

let exec t key tok =
  t.clock <- key_at key;
  let idx = tok land idx_mask in
  if Bytes.unsafe_get t.flags idx = flag_pending then begin
    let fn = t.fns.(idx) in
    slab_release t idx ~flag:flag_fired;
    t.executed <- t.executed + 1;
    fn ()
  end
  else slab_release t idx ~flag:flag_cancelled

let step t =
  (* [pop_min] parks the binding in scratch fields: the drain loop
     allocates nothing per event. *)
  match Wheel.pop_min t.queue with
  | exception Not_found -> false
  | () ->
    exec t (Wheel.popped_key t.queue) (Wheel.popped_value t.queue);
    true

let run ?until ?max_events t =
  match until with
  | None -> (
    (* No horizon: drain without peeking, so each event costs a single
       queue operation. *)
    match max_events with
    | None -> while step t do () done
    | Some n ->
      let budget = ref n in
      while !budget > 0 && step t do
        decr budget
      done)
  | Some limit ->
    let budget = ref (match max_events with None -> max_int | Some n -> n) in
    let continue = ref true in
    while !continue && !budget > 0 do
      match Wheel.peek_key t.queue with
      | exception Not_found -> continue := false
      | key ->
        if key_at key > limit then continue := false
        else begin
          ignore (step t);
          decr budget
        end
    done;
    (* The clock reaches the horizon whenever every event at or before
       it has run — including when the queue is merely empty up to
       [limit], or when the budget expired with only beyond-horizon
       events left.  Only an exhausted budget with work still due before
       [limit] leaves the clock at the last executed event. *)
    if t.clock < limit then (
      match Wheel.peek_key t.queue with
      | exception Not_found -> t.clock <- limit
      | key when key_at key > limit -> t.clock <- limit
      | _ -> ())

let every t ~interval ~until f =
  if interval <= 0 then invalid_arg "Engine.every: interval must be positive";
  let rec tick () =
    if t.clock <= until then begin
      f ();
      let next = t.clock + interval in
      if next <= until then ignore (schedule_at t ~at:next tick)
    end
  in
  ignore (schedule t ~after:interval tick)
