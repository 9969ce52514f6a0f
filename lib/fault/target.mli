(** Fault-injection capability surface of a schedulable system.

    A target bundles the hooks the {!Injector} pulls when a plan event
    fires, so one injector works uniformly across the Draconis cluster
    (single-engine or sharded) and the baselines.  Fabric-level faults
    (loss bursts, partitions) and switch fail-over are supported by
    every target; executor-level faults (crash/restart, straggler
    slowdown) only by systems built on the core pull-model executors
    ([supports_crash] / [supports_straggler] advertise this —
    {!Injector.arm} rejects a plan that exceeds the target's
    capabilities or addresses a node or host the target does not have,
    rather than failing mid-run).

    Every hook runs on the engine that owns its state: fail-over on
    [engine], node hooks on [node_engine node].  On a sharded cluster
    these are different logical processes. *)

open Draconis_sim
open Draconis_net

type t = {
  name : string;
  engine : Engine.t;  (** owns the scheduler (the switch LP when sharded) *)
  node_engine : int -> Engine.t;  (** owns worker node [i]'s executors *)
  nodes : int;  (** crash/straggler node ids lie in [\[0, nodes)] *)
  hosts : int;  (** partition host ids lie in [\[0, hosts)] *)
  clients : Draconis.Client.t array;  (** their timeouts recover lost work *)
  set_windows : Fabric.window list -> unit;
      (** installs the plan's loss and cut windows on the fabric *)
  failover : unit -> int;
      (** kill the scheduler and bring up a fresh standby; returns the
          queued tasks (or believed-occupancy slots) lost *)
  crash_node : int -> unit;
  restart_node : int -> unit;
  set_slowdown : int -> float -> unit;
  supports_crash : bool;
  supports_straggler : bool;
}

(** Full capability set, on either cluster path. *)
val of_cluster : ?name:string -> Draconis.Cluster.t -> t

(** Full capability set ([failover] clears the server's in-memory
    queue). *)
val of_central_server : ?name:string -> Draconis_baselines.Central_server.t -> t

(** Fabric faults and fail-over only; push executors have no
    crash/straggler hooks. *)
val of_r2p2 : ?name:string -> Draconis_baselines.R2p2.t -> t

(** Fabric faults and fail-over only. *)
val of_racksched : ?name:string -> Draconis_baselines.Racksched.t -> t
