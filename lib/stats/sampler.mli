(** Exact sample recorder with percentile queries.

    Stores every recorded value (as an int, e.g. nanoseconds) in a
    growable array.  Percentile queries sort a snapshot lazily; the sort
    is cached until the next [record].  Exact rather than approximate
    because simulated experiments record at most a few million points
    per series and the paper reports p50/p95/p99 precisely. *)

type t

val create : unit -> t

val record : t -> int -> unit

(** Number of recorded samples. *)
val count : t -> int

(** [percentile t p] for [p] in [\[0, 100\]], by nearest-rank on the
    sorted samples.
    @raise Invalid_argument if no samples were recorded or [p] is out of
    range. *)
val percentile : t -> float -> int

val min : t -> int
val max : t -> int
val mean : t -> float

(** Sorted copy of all samples (ascending). *)
val sorted : t -> int array

(** [cdf t ~points] is an evenly spaced [(value, cumulative_fraction)]
    curve with [points] entries, suitable for plotting against the
    paper's CDF figures. *)
val cdf : t -> points:int -> (int * float) array

(** [fold f init t] folds [f] over the samples in the order they were
    recorded. *)
val fold : ('a -> int -> 'a) -> 'a -> t -> 'a

(** [merge a b] is a new sampler containing the samples of both. *)
val merge : t -> t -> t

val clear : t -> unit
