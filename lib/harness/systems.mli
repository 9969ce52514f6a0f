(** Uniform handles over every scheduler under evaluation.

    Each constructor assembles one system — Draconis (any policy), R2P2
    (any JBSQ bound), RackSched, Sparrow (1-2 schedulers), or a
    centralized server — and returns a {!running} handle exposing
    exactly what the experiment runner needs: a submit entry point, the
    engine, the shared metrics, and the components' counters. *)

open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis

type spec = {
  workers : int;
  executors_per_worker : int;
  clients : int;
  seed : int;
}

(** The paper's testbed: 10 workers x 16 executors, 2 clients. *)
val default_spec : spec

(** A system's counters, read once when a run ends ({!running.counts}):
    each field is a component's own counter of the same name (fabric,
    pipeline, switch program, clients, workers, central server), summed
    over a system's fabric instances, clients and workers; 0 for the
    components a system lacks. *)
type counts = {
  sent : int;
  delivered : int;
  lost : int;
  partition_dropped : int;
  undeliverable : int;
  processed : int;
  recirculated : int;
  recirc_dropped : int;
  flushed : int;
  assignments : int;
  noops : int;
  rejected_tasks : int;
  swaps : int;
  swap_exchanges : int;
  resubmissions : int;
  repairs_launched : int;
  recirculations : int;
  renumbers : int;
  submitted : int;
  completed : int;
  resubmitted : int;
  abandoned : int;
  queue_full_bounces : int;
  executed : int;
  server_rejected : int;
}

(** How the runner drives a system's virtual time.  Single-engine
    systems wrap their engine with {!engine_control}; a sharded Draconis
    cluster supplies the barrier-window protocol instead —
    {!Draconis.Cluster.run} with its windows on a {!Pool.Team},
    cross-LP effect flushing, and pre-staged submission. *)
type control = {
  run_until : Time.t -> unit;  (** advance simulated time to the bound *)
  now : unit -> Time.t;  (** current simulated time (max across LPs) *)
  events : unit -> int;  (** events executed (summed across LPs) *)
  finish : unit -> unit;
      (** flush in-flight cross-LP effects (deferred metric notes)
          before the outcome is read; no-op on single-engine systems *)
  close : unit -> unit;  (** release worker domains; idempotent *)
  stage : (at:Time.t -> Task.t list -> unit) option;
      (** [Some] iff the workload must be {e pre-staged} before the run:
          the runner records the driver's submission schedule and
          replays it here (before any time advances), pinning each job
          to the owning client's LP at the recorded time.  Open-loop
          drivers stage transparently; closed-loop drivers (which react
          to completions) cannot and must fail loud. *)
}

type running = {
  name : string;
  engine : Engine.t;
  metrics : Metrics.t;
  submit : Task.t list -> unit;  (** round-robins jobs across clients *)
  outstanding : unit -> int;
  counts : unit -> counts;
  probes : unit -> (string * (unit -> int)) list;
      (** instantaneous-state sources for {!Draconis_obs.Probe} — each
          [(name, read)] pair is sampled on the probe interval when
          observability is enabled; empty for systems with nothing to
          sample *)
  phase_attribution : bool;
      (** whether the system reports the full milestone sequence of a
          task to its [metrics], so an observed run may attach the
          {!Draconis.Journey} reader; true only for Draconis — baselines
          share the client and executor but not the switch program, so
          their milestone streams would be incomplete; also false for a
          sharded cluster, whose hosts note their milestones on their
          own logical processes' clocks *)
  control : control;
}

(** [draconis ?policy_of ?racks ?queue_capacity ?rsrc_of_node
    ?client_timeout ?noop_retry spec] — the full Draconis deployment.

    [?shards] builds the cluster on one of its two sharded layouts
    ([1] or [2] logical processes; see {!Draconis.Cluster.config}).  No
    figure passes it; the tests and the benchmark's [busy-short-s2]
    workload do.  The returned control then runs barrier windows on a
    {!Pool.Team} of [min n (Pool.jobs ())] lanes (inline for one lane)
    and requires staged submission.  While a {!Draconis_obs.Recorder}
    or an INT collector ({!Draconis_obs.Int_telemetry.with_collector})
    is installed (an observed run) the windows run inline on the
    caller's domain instead, so the recorder's timeline and the
    collector's stacks are the same on every run.  Both layouts give
    bit-identical outcomes, faulted ones included: arm a
    {!Draconis_fault.Plan} on the raw cluster ({!draconis_cluster})
    through {!Draconis_fault.Injector}.
    @raise Invalid_argument on [shards] outside [{1, 2}]. *)
val draconis :
  ?policy_of:(Topology.t -> Policy.t) ->
  ?racks:int ->
  ?queue_capacity:int ->
  ?rsrc_of_node:(int -> int) ->
  ?client_timeout:Time.t ->
  ?noop_retry:Time.t ->
  ?pipeline_config:Draconis_p4.Pipeline.config ->
  ?shards:int ->
  spec ->
  running

(** [draconis_cluster ...] — same, returning the raw cluster for
    experiments that need deeper access (Fig. 11 per-node throughput). *)
val draconis_cluster :
  ?policy_of:(Topology.t -> Policy.t) ->
  ?racks:int ->
  ?queue_capacity:int ->
  ?rsrc_of_node:(int -> int) ->
  ?client_timeout:Time.t ->
  ?noop_retry:Time.t ->
  ?pipeline_config:Draconis_p4.Pipeline.config ->
  ?shards:int ->
  spec ->
  Cluster.t * running

val r2p2 :
  k:int ->
  ?client_timeout:Time.t ->
  ?pipeline_config:Draconis_p4.Pipeline.config ->
  ?work_stealing:bool ->
  spec ->
  running

val racksched :
  ?client_timeout:Time.t ->
  ?samples:int ->
  ?intra:Draconis_baselines.Node_worker.intra_policy ->
  spec ->
  running
val sparrow : schedulers:int -> spec -> running

val central_server :
  ?client_timeout:Time.t ->
  Draconis_baselines.Central_server.variant ->
  spec ->
  running

(** {2 Raw-handle constructors} — same systems, also returning the
    underlying instance for experiments that need deeper access (the
    fault injector builds its {!Draconis_fault.Target.t} from these). *)

val r2p2_system :
  k:int ->
  ?client_timeout:Time.t ->
  ?pipeline_config:Draconis_p4.Pipeline.config ->
  ?work_stealing:bool ->
  spec ->
  Draconis_baselines.R2p2.t * running

val racksched_system :
  ?client_timeout:Time.t ->
  ?samples:int ->
  ?intra:Draconis_baselines.Node_worker.intra_policy ->
  spec ->
  Draconis_baselines.Racksched.t * running

val central_server_system :
  ?client_timeout:Time.t ->
  Draconis_baselines.Central_server.variant ->
  spec ->
  Draconis_baselines.Central_server.t * running
