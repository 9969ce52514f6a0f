(** RackSched-style worker node: a node-level task queue feeding
    multiple executors through an intra-node scheduler (paper §2.2).

    The inter-node scheduler (the switch) addresses whole nodes; the
    intra-node component dispatches arriving tasks to executors and
    adds [dispatch_overhead] to every task — the 3–4 us the paper
    measures even at low load.  Two intra-node policies are provided,
    mirroring RackSched's recommendations:

    - {!Fcfs}: centralized FCFS without preemption (light-tailed
      workloads).  A queued task waits for a whole executor — short
      tasks can be stuck behind long ones (head-of-line blocking).
    - {!Processor_sharing}: preemptive round-robin time slicing
      (heavy-tailed workloads), as RackSched runs via Shinjuku.  Every
      preemption costs [overhead]. *)

open Draconis_sim
open Draconis_net
open Draconis_proto

type intra_policy =
  | Fcfs
  | Processor_sharing of { quantum : Time.t; overhead : Time.t }

type t

(** [dispatch_jitter] adds a uniform [0, jitter] extra delay per
    dispatch (default 0), reflecting the intra-node scheduler's
    variable per-task cost.  [intra] defaults to {!Fcfs}.  The node
    notes each task's first slice and its finish on [metrics], with
    port [-1]: its executors are a pool. *)
val create :
  engine:Engine.t ->
  metrics:Draconis.Metrics.t ->
  node:int ->
  executors:int ->
  fn_model:Draconis.Fn_model.t ->
  dispatch_overhead:Time.t ->
  ?dispatch_jitter:Time.t ->
  ?rng:Rng.t ->
  ?intra:intra_policy ->
  on_complete:(Task.t -> client:Addr.t -> unit) ->
  unit ->
  t

(** [deliver t task ~client] hands the node a task from the switch. *)
val deliver : t -> Task.t -> client:Addr.t -> unit

(** Tasks at the node: queued plus in service. *)
val occupancy : t -> int

val node : t -> int
val tasks_executed : t -> int

(** Preemptions performed (PS mode only). *)
val preemptions : t -> int
