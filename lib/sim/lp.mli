(** Logical process: one shard of a conservatively parallel simulation.

    A parallel-in-run simulation partitions the model (hosts, switches)
    into logical processes.  Each LP owns a private {!Engine} — its own
    wheel calendar and virtual clock — plus a derived {!Rng} stream and
    a thread-safe inbox for events posted by other LPs.  LPs never touch
    each other's engines directly: all cross-LP communication goes
    through {!post}, and the {!Sync} coordinator injects posted events
    into the destination engine at barrier-window boundaries.

    {2 Determinism contract}

    Inbox messages carry a [(at, src, seq)] stamp, where [src] is a
    stable model-entity id and [seq] a per-source monotone counter.
    Injection sorts by that stamp, so the order in which same-time
    cross-LP events enter an engine depends only on the stamps — never
    on which domain ran which LP first, and never on how the model was
    partitioned.  This is what makes a sharded cluster's two layouts
    (one LP, or the switch and the hosts on two) give the same outcomes
    exactly.

    {2 Allocation}

    The inbox is a set of parallel arrays that grow by doubling: a
    {!post} stores the stamp and the closure and allocates nothing
    else, and {!inject} heapsorts the due slots in place, then compacts
    the rest, so the mailbox adds no per-message garbage to the
    caller's closure. *)

type t

(** [create ~id ~seed ()] — a fresh LP with an empty engine.
    The LP's {!rng} stream is derived from [(seed, id)], so re-seating
    an LP on a different domain (or re-partitioning entities across
    LPs of the same ids) never perturbs its draws.
    @raise Invalid_argument if [id] is negative. *)
val create : id:int -> seed:int -> unit -> t

val id : t -> int
val engine : t -> Engine.t

(** The LP's private random stream (seeded from [(seed, id)]). *)
val rng : t -> Rng.t

(** [post t ~at ~src ~seq fn] appends a cross-LP event to [t]'s inbox.
    Thread-safe: called from whichever domain runs the sending LP.
    @raise Invalid_argument if [at] does not lie strictly beyond the
    current safe horizon (a lookahead violation: the destination may
    already have simulated past [at]). *)
val post : t -> at:Time.t -> src:int -> seq:int -> (unit -> unit) -> unit

(** Earliest work owed to this LP: the minimum of the engine's next
    event and the earliest inbox stamp.  [None] when both are empty. *)
val next_at : t -> Time.t option

(** [inject t ~upto] moves every inbox message stamped [<= upto] into
    the engine, in [(at, src, seq)] order.  Barrier-phase only (the
    caller must guarantee no concurrent {!post}). *)
val inject : t -> upto:Time.t -> unit

(** [set_floor t at] — only {!Sync} calls this: records the window
    horizon below which {!post} must refuse stamps. *)
val set_floor : t -> Time.t -> unit

(** Cross-LP messages ever posted to / injected into this LP. *)
val posted : t -> int

val injected : t -> int

(** Messages still waiting in the inbox. *)
val inbox_length : t -> int
