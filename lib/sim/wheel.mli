(** Hierarchical timing wheel keyed on packed [int] event keys.

    The engine's event calendar, tuned for the near-future schedules
    that dominate microsecond-scale simulation (host-switch hops of
    ~1.5 us, service times of a few us): push, pop and peek are O(1) in
    steady state, against O(log n) for a binary heap, and touch no
    GC-managed memory — buckets are intrusive lists over a pooled slab
    of parallel [int] arrays.

    Keys order events exactly as {!Int_heap} does: the upper bits
    ([key asr shift]) are the timestamp tick that selects a bucket, the
    low [shift] bits (the engine's tie-breaking sequence number) select
    nothing but keep keys unique; FIFO bucket order plus
    window-aligned placement reproduces the heap's total key order
    bit-for-bit, which the heap-oracle property tests pin (the wheel
    against {!Int_heap} directly, and the engine against a heap-ordered
    reference scheduler).

    Geometry: 5 levels x 32 slots, so the wheel proper covers [2^25]
    ticks (~33 ms at 1 ns/tick) ahead of the cursor.  Two {!Int_heap}
    side tiers keep the structure total without migration logic:
    [overflow] holds far-future keys beyond the top-level window, and
    [overdue] holds keys behind the cursor (only reachable when a caller
    stops a run mid-horizon and then schedules earlier than the last
    peeked event).  Both are consulted as peer priority structures on
    every pop/peek, so order is correct no matter where a key lives. *)

type t

(** [create ~shift ~capacity ()] — [shift] is the bit width of the
    non-time low bits of a key (the engine passes its sequence-field
    width); [capacity] sizes the initial node slab.
    @raise Invalid_argument if [shift] leaves fewer than the wheel-span
    bits of usable tick range. *)
val create : ?shift:int -> ?capacity:int -> unit -> t

val length : t -> int
val is_empty : t -> bool

val push : t -> int -> int -> unit

(** [pop t] removes and returns the minimum binding.
    @raise Not_found if the wheel is empty. *)
val pop : t -> int * int

(** Allocation-free pop: [pop_min t] removes the minimum binding and
    parks it in scratch fields read back with {!popped_key} /
    {!popped_value}, valid until the next [pop_min].  The engine's step
    loop uses this so popping never builds a tuple.
    @raise Not_found if the wheel is empty. *)
val pop_min : t -> unit

val popped_key : t -> int
val popped_value : t -> int

(** [peek_key t] is the minimum key without removing it.
    @raise Not_found if the wheel is empty. *)
val peek_key : t -> int

(** [drain t f] pops every binding in key order and applies [f]. *)
val drain : t -> (int -> int -> unit) -> unit

val clear : t -> unit

(** {2 Introspection} — tier occupancy, for tests and benchmarks. *)

(** Keys parked behind the cursor (see the module description). *)
val overdue_length : t -> int

(** Far-future keys beyond the wheel's [2^25]-tick window. *)
val overflow_length : t -> int
