(** Sparrow baseline: distributed scheduling with batch sampling and
    late binding (paper §2.3.2, §8.1).

    One or two scheduler processes run on server hosts.  For a job of
    [m] tasks a scheduler sends [probe_ratio x m] probes to randomly
    sampled worker nodes; workers queue the probes and, when an executor
    frees up, call back ({e late binding}) to fetch a task — the
    scheduler hands tasks to the earliest callbacks, so probe-queue
    position rather than queue-length guesses decides placement.

    Every message occupies the scheduler's CPU, so a deployment's
    throughput is capped by its host (the paper measures ~500 ktps for
    one scheduler, ~900 ktps for two) and its latency carries the
    probing round trips that Draconis avoids. *)

open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis

type config = {
  seed : int;
  workers : int;
  executors_per_worker : int;
  clients : int;
  schedulers : int;  (** 1 or 2 in the paper's deployments *)
  probe_ratio : int;  (** probes per task (d = 2 in the paper) *)
  per_message_cost : Time.t;  (** scheduler CPU per handled message *)
  per_probe_cost : Time.t;  (** additional CPU per probe sent *)
  fabric_config : Fabric.config;
}

(** Paper shape: 10x16 executors, 2 clients, 1 scheduler, d = 2. *)
val default_config : config

type t

(** Sparrow's own wire messages (submissions, probes, callbacks). *)
type msg

val create : config -> t

val engine : t -> Engine.t
val fabric : t -> msg Fabric.t
val metrics : t -> Metrics.t

(** [submit_job t ~client tasks] submits a job from client index
    [client]; jobs round-robin across schedulers. *)
val submit_job : t -> client:int -> Task.t list -> unit

val run : t -> until:Time.t -> unit
val run_until_drained : t -> deadline:Time.t -> bool
val outstanding : t -> int
val total_executors : t -> int

(** Probes currently queued at a node (tests). *)
val probe_backlog : t -> int -> int
