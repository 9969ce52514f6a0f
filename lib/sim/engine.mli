(** Discrete-event simulation engine.

    The engine owns a virtual clock and an event queue.  Components
    schedule closures at future instants; [run] executes them in
    timestamp order (ties broken by scheduling order) and advances the
    clock.  Scheduling in the past is a programming error and raises.

    The engine is single-threaded by design: a simulated cluster of
    thousands of executors runs as one deterministic event loop.  To
    shard one simulation across domains, several engines are composed as
    logical processes ({!Lp}) under a conservative barrier-window
    coordinator ({!Sync}); each engine still runs single-threaded inside
    its window.

    {2 Calendar}

    The event queue is one node pool under a hierarchical timing wheel
    of 3 levels x 1024 slots: level [l] slots are [1024^l] ns wide, so
    the wheel spans [2^30] ns (~1.07 s) ahead of its cursor, with O(1)
    steady-state operations.  A node holds the packed [(at, seq)] key,
    its bucket link, the closure, and a generation and state; a handle
    is the node index plus the generation.  Keys beyond the span, or
    behind the cursor, wait in one {!Int_heap} side tier.  The calendar
    property tests pin its execution order, event by event, to a plain
    binary-heap reference scheduler.

    {2 Allocation-free core}

    The hot path allocates nothing in steady state: event keys and
    handles are immediate ints, nodes recycle through a free list (the
    generation guards stale cancels), and buckets are intrusive lists
    over flat [int] arrays.  The only per-event allocation left is the
    caller's closure.  On an otherwise idle 2-vCPU Intel Xeon VM the
    calendar clears ~18M events/sec at a standing population of ~30k
    pending events ([bench/main.exe engine-bench]). *)

type t

(** Cancellable handle for a scheduled event — an immediate int, so
    scheduling never allocates a handle record. *)
type handle

(** [create ()] — an empty engine at time 0. *)
val create : unit -> t

(** [now t] is the current virtual time. *)
val now : t -> Time.t

(** Number of events executed so far. *)
val executed : t -> int

(** Number of events currently queued (including cancelled events whose
    queue entries have not yet been consumed). *)
val pending : t -> int

(** [next_at t] is the timestamp of the earliest queued event (cancelled
    entries included — a conservative lower bound on the next live
    event), or [None] on an empty queue.  Used by the {!Sync} barrier
    protocol to compute the global safe horizon. *)
val next_at : t -> Time.t option

(** [schedule t ~after f] runs [f] at [now t + after].
    @raise Invalid_argument if [after < 0]. *)
val schedule : t -> after:Time.t -> (unit -> unit) -> handle

(** [schedule_at t ~at f] runs [f] at absolute time [at].
    @raise Invalid_argument if [at < now t], or if [at] exceeds the
    representable horizon of the packed event key (about 36 simulated
    minutes). *)
val schedule_at : t -> at:Time.t -> (unit -> unit) -> handle

(** [cancel t h] prevents the event from firing.  Cancelling an event
    that already fired (or was already cancelled) is a no-op; the
    generation counter in the handle makes this safe even after the
    event's pooled slot has been recycled by a newer event. *)
val cancel : t -> handle -> unit

(** [cancelled t h] is true if [h] was cancelled before firing.  Once
    the slot has been recycled by a newer event (only possible after the
    cancelled entry left the queue), the history of the old handle is
    gone and this returns [false]. *)
val cancelled : t -> handle -> bool

(** [step t] executes the next event, returning [false] when the queue
    is empty. *)
val step : t -> bool

(** [run ?until ?max_events t] executes events until the queue is empty,
    the clock passes [until], or [max_events] have run.  Events at a
    time strictly greater than [until] stay queued.  When every event at
    or before [until] has run, the clock is left at [until] exactly —
    even if later events remain queued; only an exhausted [max_events]
    budget with work still due before the horizon leaves the clock at
    the last executed event's time. *)
val run : ?until:Time.t -> ?max_events:int -> t -> unit

(** [every t ~interval ~until f] schedules [f] repeatedly with the given
    period, starting one interval from now, stopping after [until]. *)
val every : t -> interval:Time.t -> until:Time.t -> (unit -> unit) -> unit

(** {2 Calendar geometry}

    Constants, exposed so the calendar tests can aim delays at every
    level's window edge and past the wheel into the side tier. *)

(** Level [l] buckets are [2^(slot_bits * l)] ticks wide. *)
val slot_bits : int

(** Number of wheel levels. *)
val levels : int

(** [2^(slot_bits * levels)]: the ticks the wheel covers ahead of its
    cursor.  Later keys wait in the side tier. *)
val span : int

(** [parked t] is the number of queued entries in the side tier: those
    beyond the span, and those scheduled behind the wheel's cursor after
    a {!next_at} moved it past the clock. *)
val parked : t -> int
