(** The causal phases of one task's life, client to client.

    Every completed task's end-to-end delay is decomposed into exactly
    these phases (see [Draconis.Journey]); the decomposition is a partition,
    so the per-task phase values sum to the measured delay to the tick.

    - [Client]: client-side time — submission bookkeeping, full-queue
      retry backoff, timeout/resubmission wait (loss limbo is charged
      here because the client is the component that recovers it).
    - [Fabric]: wire transit of the submission from client to switch.
    - [Pipeline]: switch ingress serialization plus the first
      match-action traversal after arrival.
    - [Queue]: circular-queue residency, enqueue to dequeue/swap-out.
    - [Recirc]: recirculation penalty — multi-task submission hops,
      swap hops, and switch-side resubmission transit.
    - [Dispatch]: assignment emission at the switch to the executor
      starting the task (includes parameter fetch for §4.4 tasks).
    - [Service]: executor run time.
    - [Reply]: completion leaving the executor to the client observing
      it (executor → switch → client). *)

type t =
  | Client
  | Fabric
  | Pipeline
  | Queue
  | Recirc
  | Dispatch
  | Service
  | Reply

(** All phases, in causal order. *)
val all : t list

val count : int

(** [index t] is the phase's position in {!all}, in [\[0, count)]. *)
val index : t -> int

val name : t -> string
val of_name : string -> t option

(** Phases that make up the scheduling delay (submission to executor
    start); [Service] and [Reply] lie beyond it. *)
val in_scheduling : t -> bool

val pp : Format.formatter -> t -> unit
