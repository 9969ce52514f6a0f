(** Draconis client (paper §3.1, §3.3).

    Submits single tasks or batches of independent tasks as
    job_submission packets (splitting jobs larger than one MTU across
    packets, §4.3), retries tasks bounced by a full queue after a short
    wait, and — like the paper's fault model — exposes task failures by
    resubmitting tasks that time out.  Completion and submission events
    feed the shared {!Metrics}'s samples; the counts are the client's. *)

open Draconis_sim
open Draconis_net
open Draconis_proto

type config = {
  host : int;  (** the client's host id (must not collide with workers) *)
  uid : int;  (** user id stamped on submissions *)
  retry_delay : Time.t;  (** wait before retrying a Queue_full bounce *)
  timeout : Time.t option;  (** per-task timeout; [None] disables *)
  max_resubmissions : int;  (** cap on timeout-driven resubmissions *)
  schedulers : Addr.t array;
      (** submission targets; jobs round-robin across them (one switch
          for Draconis, 1-2 server hosts for Sparrow deployments) *)
  param_size : int;
      (** bytes served per transmission-function parameter fetch (§4.4) *)
}

(** 50 us retry delay, no timeout, scheduler = the switch. *)
val default_config : host:int -> uid:int -> config

type t

(** [create ~config ~fabric ~metrics ()] registers the client's fabric
    handler. *)
val create :
  config:config -> fabric:Message.t Fabric.t -> metrics:Metrics.t -> unit -> t

(** [submit_job t tasks] assigns a fresh job id, rewrites each task's
    [uid]/[jid]/[tid] to match, and sends the job (possibly as several
    packets).  Returns the job id.
    @raise Invalid_argument on an empty task list. *)
val submit_job : t -> Task.t list -> int

val config : t -> config
val addr : t -> Addr.t

(** The engine this client schedules on — its LP's engine in a sharded
    cluster, where pre-staged submissions must land on the owning LP. *)
val engine : t -> Draconis_sim.Engine.t

(** Tasks submitted and not yet completed. *)
val outstanding : t -> int

val tasks_submitted : t -> int
val completions : t -> int

(** Timeout-driven resubmissions sent by this client; each timeout
    resubmits its task or abandons it. *)
val resubmitted : t -> int

(** Tasks given up on after [max_resubmissions] straight timeouts; an
    abandoned task leaves {!outstanding} (and is never retried again),
    so a run with a dead destination still drains. *)
val abandoned : t -> int

val queue_full_bounces : t -> int
