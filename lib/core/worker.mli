(** A worker node hosting multiple pull-model executors.

    Owns the node's fabric address and demultiplexes incoming
    assignments to its executors by destination port, as the node's NIC
    delivers UDP datagrams to per-executor sockets. *)

open Draconis_sim
open Draconis_net
open Draconis_proto

type t

(** [create ~node ~executors ~fabric ~metrics ~make_config ()] builds a
    worker with [executors] executors whose configs come from
    [make_config ~port], each noting its tasks on [metrics]; registers
    the node's fabric handler. *)
val create :
  node:int ->
  executors:int ->
  fabric:Message.t Fabric.t ->
  metrics:Metrics.t ->
  make_config:(port:int -> Executor.config) ->
  unit ->
  t

(** [start t ~stagger] starts all executors, spacing their initial
    requests [stagger] apart to avoid a synchronized thundering herd. *)
val start : t -> stagger:Time.t -> unit

val stop : t -> unit

(** [crash t] crashes every executor on the node (see
    {!Executor.crash}): in-flight tasks vanish and the node goes silent
    until {!restart}. *)
val crash : t -> unit

(** [restart t ~stagger] revives the node's executors, spacing their
    first pull requests [stagger] apart like {!start}. *)
val restart : t -> stagger:Time.t -> unit

(** [set_slowdown t f] applies straggler degradation factor [f] to every
    executor on the node ([1.0] restores full speed). *)
val set_slowdown : t -> float -> unit

val node : t -> int

(** The engine the node's executors run on (its LP's, when sharded). *)
val engine : t -> Engine.t

val executor : t -> int -> Executor.t
val executor_count : t -> int
val iter_executors : t -> (Executor.t -> unit) -> unit

val tasks_executed : t -> int
val busy_time : t -> Time.t
