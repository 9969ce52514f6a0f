(** A complete simulated Draconis deployment (paper Fig. 1).

    Assembles the discrete-event engine, the message fabric, the
    programmable-switch pipeline running the {!Switch_program}, the
    worker nodes with their pull-model executors, and the clients —
    wired to a shared {!Metrics} instance.

    Host-id layout: workers occupy hosts [0 .. workers-1]; clients
    occupy [workers .. workers+clients-1]. *)

open Draconis_sim
open Draconis_net
open Draconis_p4

type config = {
  seed : int;
  workers : int;
  executors_per_worker : int;
  clients : int;
  racks : int;
  policy_of : Topology.t -> Policy.t;
      (** built against the cluster topology so locality policies can
          reference it *)
  queue_capacity : int;
  fabric_config : Fabric.config;
  pipeline_config : Pipeline.config;
  noop_retry : Time.t;
  rsrc_of_node : int -> int;  (** executor resource bitmap per node *)
  client_timeout : Time.t option;
  shards : int option;
      (** [None]: the classic single-engine cluster.  [Some n] builds on
          [n] logical processes, with all entity-to-entity traffic
          stamped through the sharded {!Draconis_net.Fabric.router}, in
          one of two layouts: [Some 1] puts every entity on one LP (the
          reference); [Some 2] puts the whole switch pipeline on LP 0
          and every host on LP 1.  The two give bit-identical outcomes.
          Either way, faults come from a {!Draconis_fault.Plan} armed
          through {!Draconis_fault.Injector}. *)
}

(** The paper's testbed shape: 10 workers x 16 executors, 2 clients,
    1 rack, FCFS, 164K-entry queue, calibrated fabric/pipeline, 4 us
    no-op retry, all resources on every node, no client timeout,
    unsharded. *)
val default_config : config

type t

(** @raise Invalid_argument on a config with no workers or clients, or
    [shards] other than [None], [Some 1] and [Some 2]. *)
val create : config -> t

(** [start t] launches all executors (staggered within ~1 us). *)
val start : t -> unit

(** [run t ~until] advances the simulation to [until].  On a sharded
    cluster this drives {!Draconis_sim.Sync.run}; [executor] fans each
    barrier window's per-LP thunks out (e.g. over a team of domains),
    defaulting to inline execution — the bit-deterministic reference
    that every executor must reproduce.  [executor] is
    ignored on an unsharded cluster. *)
val run : ?executor:Sync.executor -> t -> until:Time.t -> unit

(** [run_until_drained t ~deadline] keeps running until no client has
    outstanding tasks or the deadline passes; returns [true] if
    drained. *)
val run_until_drained : ?executor:Sync.executor -> t -> deadline:Time.t -> bool

(** The (only) engine of an unsharded cluster; the switch LP's engine of
    a sharded one. *)
val engine : t -> Engine.t

(** [Some] iff the cluster is sharded — exposes windows/lookahead/LPs to
    harness layers that drive or report on the barrier protocol. *)
val sync : t -> Sync.t option

(** Events executed so far, summed across every LP engine when sharded. *)
val events : t -> int

val fabric : t -> Draconis_proto.Message.t Fabric.t

(** Every fabric instance, one per LP when sharded. *)
val fabrics : t -> Draconis_proto.Message.t Fabric.t array

val pipeline : t -> (Draconis_proto.Message.t, Switch_packet.t) Pipeline.t
val program : t -> Switch_program.t
val topology : t -> Topology.t
val metrics : t -> Metrics.t
val worker : t -> int -> Worker.t
val client : t -> int -> Client.t
val clients : t -> Client.t array
val workers : t -> Worker.t array
val total_executors : t -> int

(** Executors currently running a task — an observability probe source
    (utilization = busy / total). *)
val busy_executors : t -> int

(** Total tasks still outstanding across all clients. *)
val outstanding : t -> int

(** [fail_over_switch t] models the paper's fault story (sec 3.3): the
    switch dies and a standby takes over with a {e fresh} scheduling
    pipeline ({!Switch_program.standby}) — every queued task is lost and
    must be recovered by client timeouts; the switch counters carry on.
    Returns the number of tasks that were
    queued (and lost) at the moment of fail-over. *)
val fail_over_switch : t -> int

(** {2 Fault injection} — the hooks the fault injector
    ({!Draconis_fault.Injector}) arms against a cluster.  Each must run
    on the engine that owns its state: {!fail_over_switch} on {!engine}
    (the switch LP's when sharded), the node hooks on the engine of
    worker [i] ({!Worker.engine}). *)

(** [crash_worker t i] crashes every executor on worker [i]; its
    in-flight tasks vanish and are recovered by client timeouts. *)
val crash_worker : t -> int -> unit

(** [restart_worker t i] revives worker [i]'s executors (staggered like
    {!start}). *)
val restart_worker : t -> int -> unit

(** [set_node_slowdown t i f] applies straggler degradation [f] (>= 1.0,
    1.0 = full speed) to every executor on worker [i]. *)
val set_node_slowdown : t -> int -> float -> unit
