(** Per-task phase attribution, a reader of the {!Metrics.milestone}
    stream.

    Each milestone of a task charges the interval since its previous
    one to exactly one {!Draconis_obs.Phase.t} bucket, so by
    construction the buckets of a completed task {e telescope}: they sum
    to the client-observed end-to-end delay to the tick, whatever path
    the task took (recirculation hops, swaps, repair windows, queue-full
    bounces, timeout resubmissions).

    The reader keeps its own table of live journeys: [Submitted] starts
    one, [Completed] seals it into the {!Draconis_obs.Attribution.t}
    collector and drops it, so a resubmitted task's stale copy cannot
    touch the breakdown the collector holds by reference.  Every seal
    checks that the phases sum to the end-to-end delay and, for a task
    that reached an executor in one journey, that the scheduling phases
    sum to its scheduling delay, and raises [Failure] if not; it also
    feeds the ambient {!Draconis_obs.Recorder}'s [phase.*] histograms.

    Single-engine runs only: milestones are stamped with one engine's
    clock, and a sharded cluster's hosts note theirs on their own LPs. *)

open Draconis_sim

type t

val create : Engine.t -> t

(** [attach t metrics] reads every milestone noted on [metrics] from
    now on; tasks submitted earlier get no journey.
    @raise Invalid_argument if [metrics] already has an observer. *)
val attach : t -> Metrics.t -> unit

(** The collector of the sealed journeys. *)
val collector : t -> Draconis_obs.Attribution.t

(** Once, at the end of the run: records the journeys still open as
    incomplete and returns the collector. *)
val finish : t -> Draconis_obs.Attribution.t
