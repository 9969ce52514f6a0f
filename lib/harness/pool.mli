(** Domain pool: one executor for every parallel batch of the harness.

    Every (system x load) grid point of the evaluation harness is an
    independent, seeded, deterministic simulation, so a sweep
    parallelizes trivially: each grid point becomes a self-contained
    closure (its own engine, its own RNG) and {!map} runs the closures
    on a {!Team}.  A sharded simulation runs each of its barrier windows
    on a {!Team} too.

    Results always come back in list order, so tables and CSVs built
    from pooled rows are bit-identical whether the pool runs with 1
    worker or N — a property the determinism tests pin down.

    The worker count defaults to [Domain.recommended_domain_count () - 1]
    (at least 1), can be preset process-wide with the [DRACONIS_JOBS]
    environment variable, and is overridden by [set_jobs] (the [--jobs]
    flag of [bench/main.exe]).  With one job nothing is spawned and every
    closure runs inline in the calling domain, in order — the sequential
    reference behaviour. *)

(** Hard cap on worker domains ([set_jobs], [DRACONIS_JOBS], [map],
    team sizes).  The OCaml 5 runtime supports at most 128 live domains
    per process; beyond a few dozen workers there is only
    oversubscription, so out-of-range settings are rejected loudly
    instead of silently spawning until the runtime fails. *)
val max_jobs : int

(** Process-wide default worker count: [DRACONIS_JOBS] if set and within
    [\[1, max_jobs\]], else [Domain.recommended_domain_count () - 1],
    at least 1.
    @raise Invalid_argument on a non-integer or out-of-range setting —
    a bad knob is a configuration error, never a preference. *)
val default_jobs : unit -> int

(** Current worker count used when [map] gets no [?jobs]. *)
val jobs : unit -> int

(** Override the process-wide worker count.
    @raise Invalid_argument if [n < 1] or [n > max_jobs]. *)
val set_jobs : int -> unit

(** Persistent worker team for repeated parallel batches.

    A team keeps [size - 1] helper domains alive across any number of
    {!run} calls, and the calling domain works as one more lane, so a
    team of size 1 spawns nothing.  A sharded simulation runs its
    thousands of barrier windows on one team; spawning domains per
    window would dominate. *)
module Team : sig
  type t

  (** [create ~size] spawns [size - 1] helper domains.
      @raise Invalid_argument if [size < 1] or [size > max_jobs]. *)
  val create : size:int -> t

  val size : t -> int

  (** [run t thunks] runs every thunk exactly once and returns when all
      have finished.  Every lane, the calling domain included, claims
      the next unrun thunk from one shared cursor, so any lane that is
      awake takes the work; a lane only ever claims thunks of the batch
      it read, never of a later one.  A team of size 1 runs the thunks
      in index order on the caller.  If any thunk raised, the exception
      of the lowest-index one is re-raised, with its backtrace, after
      every thunk of the batch has run.  One caller at a time.
      @raise Invalid_argument if the team was shut down. *)
  val run : t -> (unit -> unit) array -> unit

  (** Joins the helper domains.  Idempotent. *)
  val shutdown : t -> unit
end

(** [map ?jobs fns] runs every closure on a team of [min jobs n] lanes
    ([jobs] defaults to {!jobs}) and returns their results in list
    order: a parallel [List.map (fun f -> f ())].  A failing closure
    does not cancel the others; the lowest-index failure is re-raised
    once all have run.
    @raise Invalid_argument if [jobs < 1] or [jobs > max_jobs]. *)
val map : ?jobs:int -> (unit -> 'a) list -> 'a list
