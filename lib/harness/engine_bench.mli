(** engine-bench: microbenchmark of the allocation-free event core.

    Runs a seeded event storm (near-future delays dominating, a
    far-future tail for the overflow tier, periodic cancels for pool
    churn) through the wheel-calendar {!Draconis_sim.Engine} and reports
    events/sec and minor words allocated per event; then drives the same
    kind of storm through {!Draconis_sim.Lp}/{!Draconis_sim.Sync} on a
    fixed 4-LP partition across a worker-count sweep, failing if any
    worker count changes the executed events, final clocks, cross-posts
    or window count.

    The report rows ([engine-wheel], [engine-sharded-s<n>]) carry only
    deterministic counts, so a committed baseline compares cleanly with
    [draconis-trace compare] regardless of machine speed. *)

val run : ?quick:bool -> unit -> unit
