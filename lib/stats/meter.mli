(** Event-rate meter.

    Counts discrete events (scheduling decisions, packets, drops) and
    reports rates over a window of simulated time.  It keeps one word
    per mark, the mark's time, in a {!Sampler}'s chunks. *)

type t

val create : unit -> t

(** [mark t ~now] records one event at simulated time [now]
    (nanoseconds). *)
val mark : t -> now:int -> unit

val total : t -> int

(** [rate_per_sec t] is total events divided by the span from the first
    mark's time to the last mark's, in events per simulated second.
    Zero if that span is not positive. *)
val rate_per_sec : t -> float

(** [first_after t ~after] is the earliest mark timestamp at or after
    [after], if any — e.g. the first scheduling decision after a fault,
    for recovery-time measurement. *)
val first_after : t -> after:int -> int option

(** [rate_over t ~duration] divides total by an externally known
    duration (ns); preferred when the measurement window is the
    experiment window rather than the first/last event. *)
val rate_over : t -> duration:int -> float

(** [timeline t ~bucket] is the per-bucket event count, bucketed by
    [bucket] nanoseconds of simulated time, for timeline plots
    (paper Fig. 11). *)
val timeline : t -> bucket:int -> (int * int) array

val clear : t -> unit
