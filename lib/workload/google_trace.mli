(** Synthetic stand-in for the accelerated Google 2011 cluster trace
    (paper §8.4, §8.6).

    The real trace is proprietary-scale data the paper samples and
    accelerates onto a 12-node cluster; its properties that matter to
    the evaluation are (a) {e bursty} arrivals — jobs arrive in clumps
    and may carry hundreds of tasks, (b) {e heavy-tailed} task durations
    around a target mean (they use 500 us and 5 ms versions), and
    (c) 12 {e priority} levels with a skewed population that the paper
    maps onto 4 switch queues, yielding 1.2% / 1.7% / 64.6% / 32.2% of
    tasks at levels 1-4.  This generator reproduces those three
    properties statistically: lognormal durations rescaled to the target
    mean, jobs of geometric size with a Pareto burst tail, and the
    paper's exact priority mix. *)

open Draconis_sim
open Draconis_proto

type spec = {
  mean_duration : Time.t;  (** 500 us or 5 ms in the paper *)
  rate_tps : float;  (** aggregate task rate *)
  horizon : Time.t;
  priority_levels : int;  (** 0 = no priorities (FCFS runs) *)
  sigma : float;  (** lognormal shape; ~1.3 matches trace skew *)
  mean_job_size : float;  (** mean tasks per job *)
  burst_fraction : float;  (** fraction of jobs that are large bursts *)
  burst_scale : int;  (** minimum size of a burst job *)
}

(** 500 us mean, 1.3 sigma, mean job size 8, 2% bursts of >= 100 tasks,
    no priorities. *)
val default_spec : spec

(** [job_size rng spec] samples a job's task count (>= 1). *)
val job_size : Rng.t -> spec -> int

(** [task_duration rng spec] samples a duration with the spec's mean. *)
val task_duration : Rng.t -> spec -> Time.t

(** [priority rng spec] samples a priority level in [1..levels]
    following {!priority_mix} (collapsed onto [priority_levels]); raises
    if [priority_levels = 0]. *)
val priority : Rng.t -> spec -> int

(** [drive engine rng spec ~submit] schedules bursty job submissions. *)
val drive : Engine.t -> Rng.t -> spec -> submit:(Task.t list -> unit) -> unit
