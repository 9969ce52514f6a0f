(** Arms a {!Plan.t} against a {!Target.t}.

    Every plan event becomes an engine event at its exact simulated
    time, so runs with the same seed and plan are byte-identical.  The
    injector tracks what fired (for logs and recovery measurement) and
    composes overlapping windows: concurrent loss bursts apply the
    maximum loss, concurrent stragglers on one node the maximum factor,
    and partitions refcount in the fabric. *)

open Draconis_sim

type t

(** [arm plan target] schedules every event.  Call before running the
    engine (events must lie in the future).
    @raise Invalid_argument if the plan uses crash or straggler events
    against a target that does not support them. *)
val arm : Plan.t -> Target.t -> t

val target : t -> Target.t

(** Fired events, chronological: time and a human-readable description.
    Each is also marked on the ambient {!Draconis_obs.Recorder}'s
    ["fault"] track. *)
val fired : t -> (Time.t * string) list

(** Fail-overs fired so far: time and queued tasks lost. *)
val failovers : t -> (Time.t * int) list

val first_failover : t -> Time.t option

(** Total queued tasks lost across all fail-overs. *)
val queued_lost : t -> int
