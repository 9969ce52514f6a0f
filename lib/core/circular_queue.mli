(** P4-compatible circular task queue with delayed pointer correction
    (paper §4.2, §4.5, §4.7) — Draconis' central data structure.

    The queue lives entirely in switch {!Draconis_p4.Register} arrays
    and every data-path operation obeys the one-access-per-register-
    per-packet rule (violations raise, see {!Draconis_p4.Packet_ctx}).

    Two 32-bit pointers index the queue: [add_ptr] (next empty slot)
    and [retrieve_ptr] (next task to schedule); a pointer [p] maps to
    slot [p mod capacity].  The pointers wrap at the largest multiple of
    the capacity that fits in 32 bits, so the slot mapping stays
    continuous across wraparound — at the paper's 58M decisions/s a
    32-bit pointer wraps in ~74 seconds, so a deployment cannot ignore
    it.  All pointer comparisons are wrap-aware (the capacity is bounded
    far below half the wrap range, so distances disambiguate).  Because
    a packet cannot check-then-increment a pointer, both operations use
    one atomic [read_and_increment] and {e optimistically} increment
    even when the queue is full/empty; the mistaken increment is
    corrected by a later repair packet:

    - a full-queue enqueue mistake is repaired immediately — the
      detecting packet launches a repair (guarded by a repair flag so
      only one is in flight) that resets [add_ptr] to the pre-mistake
      value;
    - an empty-queue dequeue mistake is repaired {e lazily} on the next
      successful enqueue, which detects [retrieve_ptr > add_ptr] and
      launches a repair pointing [retrieve_ptr] at the newly added task.

    Entry slots carry a stamp register holding the write-index of the
    occupying task; a dequeue is valid only if the stamp equals the
    pointer value it popped, which is the "is the retrieved task valid"
    check of §4.5 and also protects the sub-microsecond window where a
    pointer is inflated but its repair has not yet landed.

    The caller (the switch program) is responsible for recirculating
    the repair packets this module requests via outcome values, exactly
    as the hardware pipeline recirculates repair packets. *)

open Draconis_p4

type t

(** [create ~name ~capacity ()] allocates the register arrays.
    @raise Invalid_argument if [capacity < 1] or [capacity > 2^28]
    (pointer distances must stay far below half the wrap range). *)
val create : name:string -> capacity:int -> unit -> t

(** The pointer wrap modulus: the largest multiple of [capacity] that is
    at most 2^32. *)
val wrap_modulus : t -> int

val capacity : t -> int
val name : t -> string

(** {2 Wrap-aware pointer arithmetic} — for switch programs that carry
    pointer snapshots in packet metadata. *)

(** [next_index t p] is [p + 1] modulo the wrap modulus. *)
val next_index : t -> int -> int

(** [distance t ~ahead ~behind] is how far [ahead] is past [behind] in
    wrap order, in [\[0, wrap)]. *)
val distance : t -> ahead:int -> behind:int -> int

(** [is_ahead t a b] is true when [a] is strictly ahead of [b]
    (interpreting distances beyond half the wrap range as behind). *)
val is_ahead : t -> int -> int -> bool

type enqueue_outcome =
  | Enqueued of { index : int; retrieve_repair : int option }
      (** task stored at write-index [index]; if [retrieve_repair] is
          [Some target] this packet must launch a retrieve-pointer
          repair with that target (§4.5) *)
  | Rejected of { add_repair : int option; retrieve_repair : int option }
      (** queue full — by pointer distance, or (while a retrieve
          repair is in flight, when the retrieve pointer is inflated)
          by distance to the pending repair target, which the flag
          register carries; if [add_repair] is [Some target] this
          packet must launch the add-pointer repair, and if
          [retrieve_repair] is [Some target] it detected a retrieve
          overrun while an add repair was already in flight and must
          launch the retrieve repair too *)

(** [enqueue t ctx entry] is the job-submission path: one access each to
    [add_ptr], [retrieve_ptr], both repair flags, and (on success) the
    entry arrays. *)
val enqueue : t -> Packet_ctx.t -> Entry.t -> enqueue_outcome

type dequeue_outcome =
  | Dequeued of { index : int; entry : Entry.t }
  | Empty  (** no valid task; pointer overran and awaits lazy repair *)
  | Repair_pending
      (** a retrieve repair is in flight; caller returns a no-op
          (§4.7.2) *)

(** [dequeue t ctx] is the task-request path.  A valid dequeue reads
    and clears each entry word in one access (an exchange with zero, as
    a stateful ALU does), so a drained slot holds only zeros and the
    free stamp, and a drained register page can return to its blank;
    the words are only ever read behind a matching stamp, so the zeros
    are never seen. *)
val dequeue : t -> Packet_ctx.t -> dequeue_outcome

(** [apply_repair_add t ctx ~target] is the repair-packet path: resets
    [add_ptr] to [target] and clears the add-repair flag. *)
val apply_repair_add : t -> Packet_ctx.t -> target:int -> unit

(** [apply_repair_retrieve t ctx ~target] resets [retrieve_ptr] and
    clears the retrieve-repair flag. *)
val apply_repair_retrieve : t -> Packet_ctx.t -> target:int -> unit

(** [read_pointers t ctx] reads [(add_ptr, retrieve_ptr)] — used by
    swap packets, which must not increment either pointer (§5.1). *)
val read_pointers : t -> Packet_ctx.t -> int * int

type swap_outcome =
  | Swapped of Entry.t  (** the entry previously occupying the slot *)
  | Slot_invalid
      (** the slot does not hold a pending task (repair window); the
          caller should fall back to resubmission *)

(** [swap t ctx ~index entry] exchanges [entry] with the task at
    write-index [index] without moving either pointer — the task-swap
    primitive behind constraint-based policies (§5.1).  Each entry
    array is touched by exactly one read-modify-write. *)
val swap : t -> Packet_ctx.t -> index:int -> Entry.t -> swap_outcome

(** {2 Control-plane / test access} — not usable from the data path. *)

(** Tasks currently queued, by pointer difference (may be transiently
    inflated during a repair window). *)
val occupancy : t -> int

val peek_add_ptr : t -> int
val peek_retrieve_ptr : t -> int
val peek_add_repair_flag : t -> bool
val peek_retrieve_repair_flag : t -> bool

(** [peek_entry t ~index] reads a slot if it holds a pending task
    stamped with [index]. *)
val peek_entry : t -> index:int -> Entry.t option

(** Slots whose stamp is not the free sentinel.  A dequeue frees its
    slot's stamp, so once the repair flags are clear this counts exactly
    the pending tasks between the retrieve and add pointers. *)
val stamped_slots : t -> int

(** Total register bits this queue occupies (resource accounting). *)
val register_bits : t -> int

(** [unsafe_set_pointers_for_test t ~add ~retrieve] control-plane pokes
    both pointers (tests exercising wraparound).  Values are taken mod
    the wrap modulus. *)
val unsafe_set_pointers_for_test : t -> add:int -> retrieve:int -> unit

(** {2 Correctness-check kill switches} — fuzz-harness self-test only.

    Setting one of these disables a safety check of the optimistic
    pointer protocol, deliberately re-introducing the class of bug the
    check prevents.  {!Draconis_fuzz} flips them (run-scoped) to prove
    its oracle catches each class; production code must never touch
    them. *)

(** When true, [dequeue] skips the §4.5 stamp-validity test and treats
    every slot as holding a valid task — empty polls then resurrect
    drained or never-written slots, whose words read zero (task
    0.0.0). *)
val debug_skip_stamp_check : bool ref

(** When true, [enqueue] never detects a retrieve-pointer overrun, so
    the lazy §4.5 repair is never launched and overrun-stranded tasks
    are silently lost. *)
val debug_drop_retrieve_repair : bool ref

(** Every register array the queue allocated, for structural placement
    onto pipeline stages ({!Draconis_p4.Layout}). *)
val registers : t -> Register.t list
