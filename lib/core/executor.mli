(** Pull-model executor (paper §3.1, §4.6).

    One executor models one logical core of a worker node.  It requests
    a task from the switch only when free, runs the assigned task for
    its modeled service time, then sends the completion to the client
    {e via the scheduler} with the next task request piggybacked.  A
    no-op assignment makes it retry after [noop_retry] — the executor is
    idle while pulling, which is the CPU-efficiency trade-off the paper
    accepts to eliminate node-level blocking. *)

open Draconis_sim
open Draconis_net
open Draconis_proto

type config = {
  node : int;  (** worker node id *)
  port : int;  (** executor index within the node *)
  rsrc : int;  (** EXEC_RSRC resource bitmap *)
  noop_retry : Time.t;  (** delay before re-requesting after a no-op *)
  fn_model : Fn_model.t;
  scheduler : Addr.t;
      (** where to pull from: the switch for Draconis, a server host for
          the centralized-server baselines *)
  watchdog : Time.t option;
      (** re-send the pull request if no reply arrives within this
          window; recovers executors whose request or assignment packet
          was lost.  The executor keeps one deadline: each pull request
          sets it one window ahead, any delivery clears it, and at most
          one expiry event is pending, not one per request.  A
          completion sets no deadline.  [None] disables
          (schedulers that park requests should keep it off or
          deduplicate). *)
}

type t

(** [create ~config ~fabric ~metrics ()] builds an executor for node
    [config.node] (fabric address [Host node]) that notes each task it
    runs on [metrics]: its start ({!Metrics.note_exec_start}) and, if it
    runs to the end, its finish ({!Metrics.note_exec_finish}).  It does
    not register a fabric handler — the {!Worker} owns the node's
    handler and routes assignments by port. *)
val create : config:config -> fabric:Message.t Fabric.t -> metrics:Metrics.t -> unit -> t

(** [start ?after t] sends the initial task request, optionally delayed
    to stagger executor start-up. *)
val start : ?after:Time.t -> t -> unit

(** [deliver t msg] hands the executor a message routed to its port. *)
val deliver : t -> Message.t -> unit

(** [stop t] stops the request loop (no further pulls). *)
val stop : t -> unit

(** {2 Fault injection} *)

(** [crash t] kills the executor: the request loop stops, any task in
    flight vanishes without a completion (it is not counted as
    executed), and incoming messages are dropped until {!restart}.
    Marks ["crash"] on the executor's recorder track. *)
val crash : t -> unit

(** [restart t] revives a stopped or crashed executor: it immediately
    pulls for work again and marks ["restart"] on its recorder track.
    No-op if the executor is running. *)
val restart : t -> unit

(** [set_slowdown t f] makes every subsequently started task take [f]
    times its modeled service time — straggler degradation.  [1.0]
    restores full speed; a task already running keeps the factor it
    started with.
    @raise Invalid_argument if [f < 1.0]. *)
val set_slowdown : t -> float -> unit

val slowdown : t -> float

(** True after {!stop} or {!crash}, until {!restart}. *)
val stopped : t -> bool

val config : t -> config
val busy : t -> bool
val tasks_executed : t -> int

(** Cumulative time spent executing tasks (ns). *)
val busy_time : t -> Time.t
