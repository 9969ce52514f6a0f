(** The Draconis scheduler as a switch pipeline program.

    One program implements all four policies (§4.8, §5, §6): plain cFCFS
    over a single circular queue, resource-aware and locality-aware
    scheduling via task swapping, and priority scheduling over
    replicated per-level queues scanned through recirculation.

    PIFO-backed policies ({!Policy.backend} = [Pifo]: EDF, WFQ, aging
    priority) replace the circular queues with a {!Draconis_pifo.Pifo}
    rank store: admissions compute a rank on their traversal and pops
    become multi-traversal scans whose recirculations the program notes
    ("pifo-probe" / "pifo-scan" / "pifo-claim" / "pifo-restart").

    Every scheduling event (enqueue, dequeue, swap, repair flag,
    assignment, rejection, recirculation, ...) is a direct
    [Metrics.note_*] call on the deployment's {!Metrics.t}, as the
    baselines' schedulers make them; how often each happened is the
    program's own counter.

    The program is pure packet-in / packets-out logic against the
    {!Circular_queue} register state; it never blocks, loops, or holds
    state outside registers and per-packet metadata — the restrictions
    of the P4 target (§2.1.1). *)

open Draconis_sim


type t

(** [create ~engine ~metrics ~policy ~queue_capacity ()] allocates the
    per-level queues ([queue_capacity] entries each) and program state;
    the program notes its events on [metrics].  Runs
    {!Policy.validate} on [policy].  For PIFO-backed policies
    [queue_capacity] must be a multiple of the scan width (16, or the
    capacity itself when smaller) and at most 4096 — a pop recirculates
    once per rank-store row, so deep PIFOs are rejected loudly. *)
val create :
  engine:Engine.t ->
  metrics:Metrics.t ->
  policy:Policy.t ->
  queue_capacity:int ->
  unit ->
  t

(** The pipeline program to install via {!Draconis_p4.Pipeline.attach}
    with [wrap = fun m -> Switch_packet.Wire m]. *)
val program :
  t -> (Draconis_proto.Message.t, Switch_packet.t) Draconis_p4.Pipeline.program

val policy : t -> Policy.t

(** [queue t level] exposes a level's queue for tests and invariant
    checks.
    @raise Invalid_argument on an out-of-range level or when the policy
    deploys the PIFO backend. *)
val queue : t -> int -> Circular_queue.t

(** The rank store, when the policy deploys the PIFO backend. *)
val pifo : t -> Draconis_pifo.Pifo.t option

(** Total tasks currently held across all levels (control-plane view). *)
val total_occupancy : t -> int

(** Every register the program allocated across all queues, for
    structural stage placement ({!Draconis_p4.Layout}). *)
val registers : t -> Draconis_p4.Register.t list

(** [standby t] is [t]'s fail-over standby: a fresh program (empty
    queues or rank store) with [t]'s settings and metrics, whose
    counters start from [t]'s, so they count for the whole deployment. *)
val standby : t -> t

(** {2 Counters} — the deployment's; nothing else counts these facts.
    There are two swap facts (§5.1): {!swaps} counts swap packets
    launched, {!swap_exchanges} the exchanges swap packets make with
    queue slots.  {!repairs_launched} counts repair packets, one per
    repair flag tripped (§4.7); {!recirculations} every recirculation
    the program produces, whether the loop-back port accepts it or not;
    {!renumbers} sums {!Draconis_pifo.Pifo.renumbers} over the
    deployment's rank stores. *)

val assignments : t -> int
val noops : t -> int
val rejected_tasks : t -> int
val swaps : t -> int
val swap_exchanges : t -> int
val resubmissions : t -> int
val repairs_launched : t -> int
val recirculations : t -> int
val renumbers : t -> int
