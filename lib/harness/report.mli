(** Machine-readable benchmark results.

    [bench/main.exe --json FILE] tracks the performance trajectory of
    the reproduction across PRs: each experiment contributes its wall
    time, the number of simulated events it executed, and the key
    percentiles of every grid point it ran.  Figures push their pooled
    rows through {!add_outcomes}; the bench driver brackets each
    experiment with {!finish_experiment} and serializes everything with
    {!write}.

    All functions must be called from the coordinating domain (they are
    not thread-safe); pooled workers never touch the report directly. *)

val reset : unit -> unit

(** Record the outcome rows of the experiment currently running. *)
val add_outcomes : Runner.outcome list -> unit

(** Close the current experiment, attaching the outcomes accumulated
    since the previous call. *)
val finish_experiment : name:string -> wall_s:float -> unit

(** JSON document for everything recorded since [reset].  The header
    carries the effective worker-domain count ([jobs]) the run executed
    with. *)
val to_json : jobs:int -> quick:bool -> string

(** [write ~path ~jobs ~quick] writes {!to_json} to [path]. *)
val write : path:string -> jobs:int -> quick:bool -> unit
