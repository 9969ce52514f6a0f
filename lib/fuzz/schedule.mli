(** A complete fuzz schedule: rig configuration plus a time-sorted list
    of {!Op.t}, with a line-based text serialization used for shrunk
    reproducers ([draconis-fuzz replay FILE]).

    File format (line-oriented, blank lines and [#] comments ignored):
    {v
    draconis-fuzz/1
    seed=7 capacity=8 policy=fcfs clients=2 executors=4 service=2000
    submit at=0 client=0 uid=0 jid=0 count=2
    request at=1200 executor=1 prio=1
    v} *)

open Draconis_sim

(** Queue policy of the rig: FCFS, [Prio levels], resource-aware with a
    swap bound, or a PIFO-backed discipline ([Edf default_deadline_ns],
    [Wfq (quantum_ns, weights)], [Aging (levels, quantum_ns)]). *)
type policy =
  | Fcfs
  | Prio of int
  | Rsrc of int
  | Edf of int
  | Wfq of int * int list
  | Aging of int * int

type t = {
  seed : int;  (** generator seed; also seeds the rig RNG *)
  capacity : int;  (** per-level circular-queue capacity *)
  policy : policy;
  clients : int;
  executors : int;
  service : Time.t;  (** base executor service time per task *)
  wrap_offset : int option;
      (** when [Some o], pointers start at [wrap - o] so the schedule
          crosses the 32-bit wrap boundary almost immediately *)
  ops : Op.t list;  (** must be sorted by {!Op.at} *)
}

(** Queue levels the policy needs (= priority levels, else 1). *)
val levels : policy -> int

(** True for the rank-store disciplines (Edf/Wfq/Aging). *)
val is_pifo : policy -> bool

val policy_to_string : policy -> string

(** @raise Invalid_argument when any field or op is out of range, or
    ops are not time-sorted. *)
val validate : t -> unit

(** Stable-sort ops by time (generator/shrinker helper). *)
val sort_ops : Op.t list -> Op.t list

val to_string : t -> string

(** Parse and validate. @raise Invalid_argument on malformed input. *)
val of_string : string -> t

val save : t -> string -> unit
val load : string -> t
