(* Event keys are packed into a single immediate int,
   [at lsl seq_bits lor seq], so the calendar orders by (time, scheduling
   order) with one machine comparison.  The sequence field must stay
   below [seq_limit] for the packing to sort correctly; since the counter
   is monotone across the whole run, the calendar is renumbered (ties
   keep their order, the pending count is tiny compared to the counter)
   whenever the counter would overflow.

   The calendar is one node pool under a hierarchical timing wheel.

   Node pool.  Every scheduled event is a node: its packed key, its
   bucket link, and its generation and state packed into one int sit
   side by side in [node], and its closure in [fn].  A handle is
   [gen lsl idx_bits lor idx].  Nodes recycle through a free list
   threaded through the link field once their calendar entry is
   consumed, so steady-state schedule/cancel/step allocate nothing; the
   generation in the handle guards a cancel whose node has since been
   handed to a newer event.  Renumbering rewrites keys in place, so it
   keeps every handle valid.

   Wheel.  [levels] levels of [slots] buckets; level [l] buckets are
   [slots^l] ticks (nanoseconds) wide, so the wheel spans [span] ticks
   ahead of its cursor.  3 x 1024 is sized to the simulation's delay
   mix: a 400-600 ns admission or recirculation often stays in the
   cursor's level-0 window, the 1.5 us hops and the 4 us retry sit in
   level 1 and cascade once, and so do most 100-500 us service and
   200 us watchdog timers (level 1 spans ~1 ms).  Each level keeps a
   two-level occupancy bitmap (32 words of 32 bits under one summary
   word), so finding the next occupied bucket is two masked bit-scans.

   Placement is by window, not by delta: a node goes to the smallest
   level whose current window (the aligned [slots^(l+1)]-tick range the
   cursor is in) contains its tick.  Every tick then maps to exactly one
   bucket at any moment, so all pushes for one tick land in the same
   FIFO list, and cascades (which move whole lists in order) preserve
   the (tick, push order) execution order exactly: the order a min-heap
   on the packed keys produces.  Buckets are circular lists addressed
   by their tail, whose link is the head.

   Side tier: one [Int_heap] holds the keys the wheel cannot, those
   beyond its span (far-future timers, never migrated) and those behind
   the cursor (only reachable when the cursor moved past the clock to
   answer [next_at] and the caller then schedules earlier).  Its minimum
   key is cached in [side_min], so the hot path compares against it
   without a call.

   Every internal index (node, bucket, bitmap word) is in range by
   construction, so the hot path reads and writes unchecked; only the
   caller-supplied handles of [cancel]/[cancelled] are bounds-checked. *)

let seq_bits = 21
let seq_limit = 1 lsl seq_bits
let max_at = max_int asr seq_bits

let slot_bits = 10
let slots = 1 lsl slot_bits
let slot_mask = slots - 1
let levels = 3
let span_bits = slot_bits * levels
let span = 1 lsl span_bits

(* Occupancy bitmaps in [occ]: level [l]'s 32-bit words at
   [l lsl level_words], then one summary word per level at
   [summary + l]. *)
let word_bits = 5
let word_mask = (1 lsl word_bits) - 1
let level_words = slot_bits - word_bits
let summary = levels lsl level_words

(* Handle tokens: [gen lsl idx_bits lor idx]. *)
let idx_bits = 24
let idx_mask = (1 lsl idx_bits) - 1
let gen_mask = max_int lsr idx_bits

(* Node state, in the low bits of the meta field under the generation. *)
let state_bits = 2
let state_mask = (1 lsl state_bits) - 1
let pending_st = 1
let fired_st = 2
let cancelled_st = 3

(* Node [n]'s fields sit at [n * node_size] in [node]. *)
let node_size = 3
let key_f = 0
let link_f = 1
let meta_f = 2

type handle = int

type t = {
  mutable clock : Time.t;
  mutable seq : int;
  mutable executed : int;
  mutable node : int array;
  mutable fn : (unit -> unit) array;
  mutable free : int;  (* free-list head, threaded through the link field *)
  tail : int array;  (* per bucket [level lsl slot_bits lor slot]; -1 empty *)
  occ : int array;
  mutable cur : int;  (* cursor tick: no wheel-resident key is below it *)
  mutable resident : int;
  side : int Int_heap.t;
  mutable side_min : int;  (* [max_int] when [side] is empty *)
}

let pack ~at ~seq = (at lsl seq_bits) lor seq
let noop () = ()

let[@inline] get t n f = Array.unsafe_get t.node ((n * node_size) + f)
let[@inline] set t n f v = Array.unsafe_set t.node ((n * node_size) + f) v

(* A fresh node array: every node fired at generation 0, and nodes
   [from] onwards chained into a free list. *)
let fresh_nodes cap ~from =
  let node = Array.make (cap * node_size) 0 in
  for n = from to cap - 1 do
    node.((n * node_size) + link_f) <- (if n + 1 < cap then n + 1 else -1);
    node.((n * node_size) + meta_f) <- fired_st
  done;
  node

let create () =
  let cap = 64 in
  {
    clock = 0;
    seq = 0;
    executed = 0;
    node = fresh_nodes cap ~from:0;
    fn = Array.make cap noop;
    free = 0;
    tail = Array.make (levels lsl slot_bits) (-1);
    occ = Array.make (summary + levels) 0;
    cur = 0;
    resident = 0;
    side = Int_heap.create ~capacity:16 ();
    side_min = max_int;
  }

let now t = t.clock
let executed t = t.executed
let pending t = t.resident + Int_heap.length t.side
let parked t = Int_heap.length t.side

(* -- node pool ------------------------------------------------------------- *)

let grow t =
  let cap = Array.length t.fn in
  if 2 * cap > idx_mask + 1 then invalid_arg "Engine: more than 2^24 events pending";
  let node = fresh_nodes (2 * cap) ~from:cap in
  let fn = Array.make (2 * cap) noop in
  Array.blit t.node 0 node 0 (cap * node_size);
  Array.blit t.fn 0 fn 0 cap;
  t.node <- node;
  t.fn <- fn;
  t.free <- cap

(* Called exactly once per node, when its calendar entry is consumed.
   The state stays as it was (cancelled) or was just set (fired). *)
let[@inline] release t n =
  Array.unsafe_set t.fn n noop;
  set t n link_f t.free;
  t.free <- n

(* -- wheel ----------------------------------------------------------------- *)

(* Trailing-zero count via de Bruijn multiplication; bitmap words only
   use their low 32 bits. *)
let ctz_table =
  [| 0; 1; 28; 2; 29; 14; 24; 3; 30; 22; 20; 15; 25; 17; 4; 8; 31; 27; 13; 23;
     21; 19; 16; 7; 26; 12; 18; 6; 11; 5; 10; 9 |]

let[@inline] ctz x =
  Array.unsafe_get ctz_table ((((x land -x) * 0x077CB531) land 0xFFFFFFFF) lsr 27)

let[@inline] mark t ~level ~slot =
  let w = (level lsl level_words) lor (slot lsr word_bits) in
  let o = Array.unsafe_get t.occ w in
  if o = 0 then begin
    let s = summary + level in
    Array.unsafe_set t.occ s (Array.unsafe_get t.occ s lor (1 lsl (slot lsr word_bits)))
  end;
  Array.unsafe_set t.occ w (o lor (1 lsl (slot land word_mask)))

let[@inline] unmark t ~level ~slot =
  let w = (level lsl level_words) lor (slot lsr word_bits) in
  let o = Array.unsafe_get t.occ w land lnot (1 lsl (slot land word_mask)) in
  Array.unsafe_set t.occ w o;
  if o = 0 then begin
    let s = summary + level in
    Array.unsafe_set t.occ s
      (Array.unsafe_get t.occ s land lnot (1 lsl (slot lsr word_bits)))
  end

(* First occupied slot of [level] in a word after word [w], or -1. *)
let after_word t ~level ~w =
  let s = Array.unsafe_get t.occ (summary + level) land (-1 lsl (w + 1)) in
  if s = 0 then -1
  else begin
    let w = ctz s in
    (w lsl word_bits) lor ctz (Array.unsafe_get t.occ ((level lsl level_words) lor w))
  end

(* First occupied slot of [level] at or after [slot] (< [slots]), or -1. *)
let[@inline] next_slot t ~level ~slot =
  let w = slot lsr word_bits in
  let b =
    Array.unsafe_get t.occ ((level lsl level_words) lor w)
    land (-1 lsl (slot land word_mask))
  in
  if b <> 0 then (w lsl word_bits) lor ctz b else after_word t ~level ~w

(* Smallest level whose current window contains [tick]; the xor with the
   cursor bounds how high the differing bit is.  Written out for
   [levels = 3]. *)
let[@inline] level_of t tick =
  let d = tick lxor t.cur in
  if d < slots then 0 else if d < 1 lsl (2 * slot_bits) then 1 else 2

(* Append node [n] to its bucket.  Does not touch [resident]: cascades
   relink nodes that are already counted. *)
let[@inline] link t ~tick n =
  let level = level_of t tick in
  let slot = (tick lsr (level * slot_bits)) land slot_mask in
  let b = (level lsl slot_bits) lor slot in
  let tl = Array.unsafe_get t.tail b in
  if tl < 0 then begin
    set t n link_f n;
    mark t ~level ~slot
  end
  else begin
    set t n link_f (get t tl link_f);
    set t tl link_f n
  end;
  Array.unsafe_set t.tail b n

let[@inline] insert t n k =
  let tick = k asr seq_bits in
  (* An empty wheel has no resident keys to order against, so the cursor
     is free to jump straight to the new tick. *)
  if t.resident = 0 then t.cur <- tick;
  if tick < t.cur || (tick lxor t.cur) lsr span_bits <> 0 then begin
    Int_heap.push t.side k n;
    if k < t.side_min then t.side_min <- k
  end
  else begin
    link t ~tick n;
    t.resident <- t.resident + 1
  end

(* Relink the bucket list from [n] through its tail [tl], in order. *)
let rec relink t n ~tl =
  let next = get t n link_f in
  link t ~tick:(get t n key_f asr seq_bits) n;
  if n <> tl then relink t next ~tl

(* Move every node of bucket [(level, slot)] down a level or more.
   Called exactly when the cursor enters the bucket's window, so each
   node's new level is strictly below [level]. *)
let cascade t ~level ~slot =
  let b = (level lsl slot_bits) lor slot in
  let tl = Array.unsafe_get t.tail b in
  Array.unsafe_set t.tail b (-1);
  unmark t ~level ~slot;
  relink t (get t tl link_f) ~tl

(* Head node of the earliest occupied tick, if that tick is at or before
   [limit], else -1.  Moves the cursor forward to that tick (cascading
   the buckets it enters) but never past [limit], so a run that stops at
   a horizon leaves the cursor behind every later schedule. *)
let rec find t ~limit =
  if t.resident = 0 then -1
  else begin
    let s = next_slot t ~level:0 ~slot:(t.cur land slot_mask) in
    if s < 0 then find_up t ~limit 1
    else begin
      let tick = t.cur land lnot slot_mask lor s in
      if tick > limit then -1
      else begin
        t.cur <- tick;
        get t (Array.unsafe_get t.tail s) link_f
      end
    end
  end

and find_up t ~limit level =
  if level >= levels then -1
  else begin
    (* The bucket the cursor is inside was drained when its window was
       entered and cannot repopulate, so scan strictly beyond it. *)
    let low = level * slot_bits in
    let inside = (t.cur lsr low) land slot_mask in
    let s = if inside = slot_mask then -1 else next_slot t ~level ~slot:(inside + 1) in
    if s < 0 then find_up t ~limit (level + 1)
    else begin
      let start = t.cur land lnot ((1 lsl (low + slot_bits)) - 1) lor (s lsl low) in
      if start > limit then -1
      else begin
        t.cur <- start;
        cascade t ~level ~slot:s;
        find t ~limit
      end
    end
  end

(* Remove and return the earliest node if its time is at or before
   [limit], else -1. *)
let take t ~limit =
  let n = find t ~limit in
  (* Keys are unique, so [<=] only differs from [<] when [side] is empty
     and [side_min] is its [max_int] sentinel. *)
  if n >= 0 && get t n key_f <= t.side_min then begin
    (* [find] left the cursor on the node's tick, so its level-0 slot is
       the cursor's low bits. *)
    let s = t.cur land slot_mask in
    let tl = Array.unsafe_get t.tail s in
    if n = tl then begin
      Array.unsafe_set t.tail s (-1);
      unmark t ~level:0 ~slot:s
    end
    else set t tl link_f (get t n link_f);
    t.resident <- t.resident - 1;
    n
  end
  else if t.side_min asr seq_bits > limit || Int_heap.is_empty t.side then -1
  else begin
    (* The side tier is rare by design; its tuple is the only allocation
       left on any pop path. *)
    let _, n = Int_heap.pop t.side in
    t.side_min <- (if Int_heap.is_empty t.side then max_int else Int_heap.peek_key t.side);
    n
  end

(* Whether an entry is due at or before [limit]; like [take], it moves
   the cursor no further than [limit]. *)
let due t ~limit =
  find t ~limit >= 0
  || (t.side_min asr seq_bits <= limit && not (Int_heap.is_empty t.side))

let next_at t =
  let n = find t ~limit:max_int in
  if n >= 0 && get t n key_f <= t.side_min then Some (get t n key_f asr seq_bits)
  else if Int_heap.is_empty t.side then None
  else Some (t.side_min asr seq_bits)

(* -- scheduling ------------------------------------------------------------ *)

let renumber t =
  let order = Array.make (Int.max 1 (pending t)) 0 in
  let live = ref 0 in
  (* Drop cancelled entries while renumbering: their nodes recycle now
     instead of at their (never-observable) pop. *)
  let n = ref (take t ~limit:max_int) in
  while !n >= 0 do
    if get t !n meta_f land state_mask = pending_st then begin
      order.(!live) <- !n;
      incr live
    end
    else release t !n;
    n := take t ~limit:max_int
  done;
  for seq = 0 to !live - 1 do
    let n = order.(seq) in
    let k = pack ~at:(get t n key_f asr seq_bits) ~seq in
    set t n key_f k;
    insert t n k
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
  if t.free < 0 then grow t;
  let n = t.free in
  t.free <- get t n link_f;
  let gen = ((get t n meta_f lsr state_bits) + 1) land gen_mask in
  set t n meta_f ((gen lsl state_bits) lor pending_st);
  Array.unsafe_set t.fn n f;
  let k = pack ~at ~seq:t.seq in
  set t n key_f k;
  t.seq <- t.seq + 1;
  insert t n k;
  (gen lsl idx_bits) lor n

let schedule t ~after f =
  if after < 0 then invalid_arg "Engine.schedule: negative delay";
  schedule_at t ~at:(t.clock + after) f

(* Handles come from callers, so these two index with bounds checks. *)
let cancel t h =
  let i = ((h land idx_mask) * node_size) + meta_f in
  if t.node.(i) = ((h lsr idx_bits) lsl state_bits) lor pending_st then
    t.node.(i) <- t.node.(i) lor cancelled_st

let cancelled t h =
  let i = ((h land idx_mask) * node_size) + meta_f in
  t.node.(i) = ((h lsr idx_bits) lsl state_bits) lor cancelled_st

let exec t n =
  t.clock <- get t n key_f asr seq_bits;
  let m = get t n meta_f in
  if m land state_mask = pending_st then begin
    let f = Array.unsafe_get t.fn n in
    set t n meta_f (m land lnot state_mask lor fired_st);
    release t n;
    t.executed <- t.executed + 1;
    f ()
  end
  else release t n

let step t =
  let n = take t ~limit:max_int in
  if n < 0 then false
  else begin
    exec t n;
    true
  end

let run ?until ?max_events t =
  let limit = Option.value until ~default:max_int in
  let budget = ref (Option.value max_events ~default:max_int) in
  let more = ref true in
  while !more && !budget > 0 do
    let n = take t ~limit in
    if n < 0 then more := false
    else begin
      exec t n;
      decr budget
    end
  done;
  (* The clock reaches the horizon whenever every event at or before it
     has run — including when the queue is merely empty up to [limit],
     or when the budget expired with only beyond-horizon events left.
     Only an exhausted budget with work still due before [limit] leaves
     the clock at the last executed event. *)
  match until with
  | Some limit when t.clock < limit && not (!more && due t ~limit) -> t.clock <- limit
  | _ -> ()

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
