(** Push-model executor with a local task queue.

    The building block of the R2P2 and RackSched baselines (paper §2.2):
    the scheduler {e pushes} tasks to the executor, which queues and
    runs them FCFS.  A queued task waits even if executors elsewhere are
    free — the node-level blocking Draconis eliminates.

    The executor does not talk to the fabric itself; the owning worker
    delivers tasks and is told about completions through a callback
    (R2P2 and RackSched route replies differently). *)

open Draconis_sim
open Draconis_net
open Draconis_proto

type t

(** [create ~engine ~metrics ~node ~port ~fn_model ~on_complete ()] —
    the executor notes each task's start and finish on [metrics];
    [on_complete task ~client] fires when a task finishes service. *)
val create :
  engine:Engine.t ->
  metrics:Draconis.Metrics.t ->
  node:int ->
  port:int ->
  fn_model:Draconis.Fn_model.t ->
  on_complete:(Task.t -> client:Addr.t -> unit) ->
  unit ->
  t

(** [push t task ~client] queues the task (or starts it if idle). *)
val push : t -> Task.t -> client:Addr.t -> unit

(** [try_steal t] removes and returns the most recently queued task
    that has not started running (work-stealing extension); [None] if
    nothing is waiting. *)
val try_steal : t -> (Task.t * Addr.t) option

(** Queued tasks, including the one in service. *)
val occupancy : t -> int

val busy : t -> bool
val node : t -> int
val port : t -> int
val tasks_executed : t -> int
