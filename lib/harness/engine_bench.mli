(** engine-bench: microbenchmark of the allocation-free event core.

    Runs a seeded event storm (near-future delays dominating, a
    far-future tail for the overflow tier, periodic cancels for pool
    churn) through the wheel-calendar {!Draconis_sim.Engine} and reports
    events/sec and minor words allocated per event.

    The report row ([engine-wheel]) carries only deterministic counts,
    so a committed baseline compares cleanly with
    [draconis-trace compare] regardless of machine speed. *)

val run : ?quick:bool -> unit -> unit
