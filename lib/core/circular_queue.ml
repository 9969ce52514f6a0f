open Draconis_p4

type t = {
  name : string;
  capacity : int;
  wrap : int;  (* pointer modulus: largest multiple of capacity <= 2^32 *)
  add_ptr : Register.t;
  retrieve_ptr : Register.t;
  add_repair_flag : Register.t;
  retrieve_repair_flag : Register.t;
  words : Register.t array;  (* one array per entry word *)
  stamps : Register.t;  (* write-index of the occupying task *)
}

(* The stamp value marking a free slot.  On hardware this is a separate
   valid bit; here we use the (unreachable) wrap modulus itself. *)
let free_stamp t = t.wrap

let max_capacity = 1 lsl 28

let create ~name ~capacity () =
  if capacity < 1 then invalid_arg "Circular_queue.create: capacity must be >= 1";
  if capacity > max_capacity then
    invalid_arg "Circular_queue.create: capacity too large for 32-bit pointers";
  let wrap = (1 lsl 32) / capacity * capacity in
  let reg suffix size = Register.create ~name:(name ^ "." ^ suffix) ~size () in
  let stamps = reg "stamp" capacity in
  let t =
    {
      name;
      capacity;
      wrap;
      add_ptr = reg "add_ptr" 1;
      retrieve_ptr = reg "retrieve_ptr" 1;
      add_repair_flag = reg "add_repair_flag" 1;
      retrieve_repair_flag = reg "retrieve_repair_flag" 1;
      words = Array.init Entry.word_count (fun i -> reg (Printf.sprintf "word%d" i) capacity);
      stamps;
    }
  in
  (* Stamps are initialised to the free sentinel from the control plane,
     as the switch CPU would do before enabling the pipeline. *)
  Register.fill stamps (free_stamp t);
  t

let capacity t = t.capacity
let name t = t.name
let wrap_modulus t = t.wrap

(* -- hidden correctness-check kill switches -------------------------------- *)

(* Each ref disables one of the checks that make the optimistic pointer
   protocol safe.  They exist solely so the fuzz harness (lib/fuzz) can
   prove its oracle detects the class of bug each check prevents; see
   Draconis_fuzz.Exec.  Nothing else may set them.  Both default to
   false, where the extra branch is free on the hot path. *)
let debug_skip_stamp_check = ref false
let debug_drop_retrieve_repair = ref false

(* -- wrap-aware pointer arithmetic ---------------------------------------- *)

let next_index t p = if p + 1 >= t.wrap then 0 else p + 1
let distance t ~ahead ~behind = (ahead - behind + t.wrap) mod t.wrap

(* Pointers never legitimately drift more than a few capacities apart, so
   any distance beyond half the wrap range means "actually behind". *)
let is_ahead t a b =
  let d = distance t ~ahead:a ~behind:b in
  d > 0 && d <= t.wrap / 2

type enqueue_outcome =
  | Enqueued of { index : int; retrieve_repair : int option }
  | Rejected of { add_repair : int option; retrieve_repair : int option }

let read_and_advance t reg ctx = Register.read_and_advance reg ctx 0 ~modulus:t.wrap

let enqueue t ctx entry =
  (* (1) pointer stage: optimistic read-and-increment (§4.2). *)
  let a = read_and_advance t t.add_ptr ctx in
  let r = Register.read t.retrieve_ptr ctx 0 in
  let occupancy = distance t ~ahead:a ~behind:r in
  (* [occupancy] beyond half the range means the retrieve pointer has
     overrun (queue empty + polled); that is never "full". *)
  let pointer_full = occupancy >= t.capacity && occupancy <= t.wrap / 2 in
  (* Lazy retrieve-pointer repair: r overran past the slot we would
     fill, so a repair must point it back (§4.5). *)
  let overrun = is_ahead t r a && not !debug_drop_retrieve_repair in
  (* (3) flag stage: one access per flag — a compare-and-swap from
     clear when the flag's condition holds, a plain read otherwise;
     each condition uses only pointer-stage metadata and the flag's own
     previous value, as the per-stage ALUs of the hardware require.
     The retrieve flag word doubles as the in-flight repair target
     ([0] = clear, [target + 1] otherwise): while the repair is in
     flight the retrieve pointer is inflated and [occupancy] above is
     only a lower bound — trusting it let a store overwrite a live slot
     whose write-index maps to the same physical slot (found by
     lib/fuzz).  The target in the flag word is the true retrieve
     position, so the true occupancy stays computable in this stage. *)
  let old_retrieve_flag =
    if overrun then
      Register.compare_and_swap t.retrieve_repair_flag ctx 0 ~expected:0 ~desired:(a + 1)
    else Register.read t.retrieve_repair_flag ctx 0
  in
  let retrieve_pending = old_retrieve_flag <> 0 in
  let retrieve_launch = overrun && not retrieve_pending in
  let full =
    if retrieve_pending then begin
      (* No "distance beyond wrap/2 means behind" escape here: when the
         in-flight repair was launched by a rejected packet its target
         is a hole, and an add-pointer repair can then reset [a] below
         the target — reading that as "empty" let two stores alias one
         slot (found by lib/fuzz).  Rejecting is safe: the lazy repair
         rounds converge once the window closes. *)
      let d = distance t ~ahead:a ~behind:(old_retrieve_flag - 1) in
      d >= t.capacity
    end
    else pointer_full
  in
  let old_add_flag =
    if full then Register.compare_and_swap t.add_repair_flag ctx 0 ~expected:0 ~desired:1
    else Register.read t.add_repair_flag ctx 0
  in
  if full || old_add_flag = 1 then
    (* [retrieve_repair] is non-None only in the rare case where this
       packet detected an overrun but an add repair is already in
       flight: the flag was set above, so the repair must still launch
       (targeting [a]: the queue is empty when overrun, and a further
       overrun round re-repairs against the post-repair add pointer). *)
    Rejected
      {
        add_repair = (if full && old_add_flag = 0 then Some a else None);
        retrieve_repair = (if retrieve_launch then Some a else None);
      }
  else begin
    (* INT: stamp the occupancy this admission decision was made
       against.  Every input is already in hand from the pointer and
       flag stages — the corrected distance during a retrieve-repair
       window, zero on a fresh overrun — so the stamp costs no extra
       register access. *)
    ctx.Packet_ctx.telemetry.occupancy <-
      (if retrieve_pending then distance t ~ahead:a ~behind:(old_retrieve_flag - 1)
       else if overrun then 0
       else occupancy);
    (* (5) egress queue access: write the entry words and stamp. *)
    let slot = a mod t.capacity in
    let image = Entry.to_words entry in
    for i = 0 to Entry.word_count - 1 do
      Register.write t.words.(i) ctx slot image.(i)
    done;
    Register.write t.stamps ctx slot a;
    Enqueued
      { index = a; retrieve_repair = (if retrieve_launch then Some a else None) }
  end

type dequeue_outcome =
  | Dequeued of { index : int; entry : Entry.t }
  | Empty
  | Repair_pending

let dequeue t ctx =
  (* (1) pointer stage. *)
  let r = read_and_advance t t.retrieve_ptr ctx in
  (* (3) flag stage: a pending retrieve repair means r is unreliable;
     answer with a no-op and let the repair land (§4.7.2). *)
  let flag = Register.read t.retrieve_repair_flag ctx 0 in
  if flag <> 0 then Repair_pending
  else begin
    (* (5) egress: the stamp check is the task-validity test of §4.5 —
       it fails when the queue is empty (the optimistic increment was a
       mistake, to be lazily repaired) and in pointer-repair windows. *)
    let slot = r mod t.capacity in
    let stamp = Register.exchange t.stamps ctx slot (free_stamp t) in
    if stamp <> r && not !debug_skip_stamp_check then Empty
    else begin
      (* Each word is read and cleared in one access, as a stateful ALU
         does: the words are only ever read behind a matching stamp, so
         the zeros are never seen, and a drained slot holds nothing. *)
      let image = Array.make Entry.word_count 0 in
      for i = 0 to Entry.word_count - 1 do
        image.(i) <- Register.exchange t.words.(i) ctx slot 0
      done;
      Dequeued { index = r; entry = Entry.of_words image }
    end
  end

let apply_repair_add t ctx ~target =
  Register.write t.add_ptr ctx 0 (target mod t.wrap);
  Register.write t.add_repair_flag ctx 0 0

let apply_repair_retrieve t ctx ~target =
  Register.write t.retrieve_ptr ctx 0 (target mod t.wrap);
  Register.write t.retrieve_repair_flag ctx 0 0

let read_pointers t ctx =
  let a = Register.read t.add_ptr ctx 0 in
  let r = Register.read t.retrieve_ptr ctx 0 in
  (a, r)

type swap_outcome = Swapped of Entry.t | Slot_invalid

let swap t ctx ~index entry =
  let index = index mod t.wrap in
  let slot = index mod t.capacity in
  (* The stamp RMW both validates the slot and claims it for the
     incoming task in a single access. *)
  let old_stamp = Register.exchange t.stamps ctx slot index in
  if old_stamp <> index then begin
    (* Not a pending task: restore the stamp we clobbered.  On hardware
       the stamp RMW would be conditional on the predicate computed in
       an earlier stage; the model performs the restore through the
       control plane to keep the data-path access single. *)
    Register.poke t.stamps slot old_stamp;
    Slot_invalid
  end
  else begin
    (* Each exchange leaves the outgoing word in the image's place. *)
    let image = Entry.to_words entry in
    for i = 0 to Entry.word_count - 1 do
      image.(i) <- Register.exchange t.words.(i) ctx slot image.(i)
    done;
    Swapped (Entry.of_words image)
  end

let occupancy t =
  let d =
    distance t ~ahead:(Register.peek t.add_ptr 0) ~behind:(Register.peek t.retrieve_ptr 0)
  in
  if d > t.wrap / 2 then 0 else d

let peek_add_ptr t = Register.peek t.add_ptr 0
let peek_retrieve_ptr t = Register.peek t.retrieve_ptr 0
let peek_add_repair_flag t = Register.peek t.add_repair_flag 0 = 1
let peek_retrieve_repair_flag t = Register.peek t.retrieve_repair_flag 0 <> 0

let peek_entry t ~index =
  let index = index mod t.wrap in
  let slot = index mod t.capacity in
  if Register.peek t.stamps slot <> index then None
  else begin
    let image = Array.init Entry.word_count (fun i -> Register.peek t.words.(i) slot) in
    Some (Entry.of_words image)
  end

let stamped_slots t =
  let n = ref 0 in
  for slot = 0 to t.capacity - 1 do
    if Register.peek t.stamps slot <> free_stamp t then incr n
  done;
  !n

let register_bits t =
  Register.bits t.add_ptr + Register.bits t.retrieve_ptr
  + Register.bits t.add_repair_flag
  + Register.bits t.retrieve_repair_flag
  + Register.bits t.stamps
  + Array.fold_left (fun acc reg -> acc + Register.bits reg) 0 t.words

let registers t =
  t.add_ptr :: t.retrieve_ptr :: t.add_repair_flag :: t.retrieve_repair_flag
  :: t.stamps :: Array.to_list t.words

let unsafe_set_pointers_for_test t ~add ~retrieve =
  Register.poke t.add_ptr 0 (((add mod t.wrap) + t.wrap) mod t.wrap);
  Register.poke t.retrieve_ptr 0 (((retrieve mod t.wrap) + t.wrap) mod t.wrap)
