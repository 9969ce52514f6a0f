(** Arms a {!Plan.t} against a {!Target.t} — the one way a fault
    reaches a system.

    Loss bursts and partitions become loss and cut windows on the
    target's fabric ({!Draconis_net.Fabric.set_windows}), checked on
    every send.  Every plan edge (an event's start, or the end of its
    window) is also one engine event at its exact simulated time, on
    the engine that owns what it touches: fail-over and the fabric
    edges on the scheduler's engine, crash, restart and straggler edges
    on the node's.  A straggler edge sets the node's factor to the
    maximum over its windows active at that instant, so overlapping
    windows compose by max; overlapping loss windows compose by max
    too, and a host is cut while any of its windows is open.  Runs with
    the same seed and plan are byte-identical, and a sharded cluster
    gives the same outcome at every shard count. *)

open Draconis_sim

type t

(** [arm plan target] validates the whole plan, then installs its
    fabric windows and schedules every edge.  Call before running (the
    edges must lie in the future).  An empty plan touches nothing.
    @raise Invalid_argument, before scheduling anything, if the plan
    uses crash or straggler events against a target that does not
    support them, names a node outside [\[0, target.nodes)] or a host
    outside [\[0, target.hosts)], or has an edge in the past. *)
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
