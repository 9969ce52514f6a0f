(** Tasks and their scheduling metadata (paper §4.1).

    A task is identified by the tuple [<UID, JID, TID>] and carries the
    id and argument of a pre-compiled function plus policy-specific
    properties (TPROPS): a resource bitmap, data-locality node ids, or
    a priority level. *)

(** Globally unique task identifier. *)
type id = { uid : int; jid : int; tid : int }

val pp_id : Format.formatter -> id -> unit
val equal_id : id -> id -> bool
val compare_id : id -> id -> int

(** [hash_id id] mixes all three fields into the low bits, allocation
    free and without [caml_hash]. *)
val hash_id : id -> int

(** Hash table keyed on task ids with {!equal_id} and {!hash_id}: no
    polymorphic hash or compare on a lookup.  Every per-task table on
    the run path uses it. *)
module Tbl : Hashtbl.S with type key = id

(** Policy-specific task properties (the TPROPS field). *)
type tprops =
  | No_props  (** plain FCFS task *)
  | Resources of int  (** bitmap of required resources (paper §5.2) *)
  | Locality of int list  (** ids of nodes holding the input data (§5.3) *)
  | Priority of int  (** priority level, 1 = highest (§6.1) *)
  | Deadline of int  (** relative deadline in ns (PIFO EDF discipline) *)
  | Tenant of int  (** tenant id for weighted fair queueing (PIFO WFQ) *)

(** Well-known function ids understood by the simulated executors. *)
module Fn : sig
  (** Immediately completes; used by the throughput experiments. *)
  val noop : int

  (** Busy-loops for [fn_par] nanoseconds. *)
  val busy_loop : int

  (** Busy-loops for [fn_par] ns after fetching input data; the fetch
      costs extra if the data is not local (paper §8.5). *)
  val data_task : int

  (** A transmission function (paper §4.4): the submitted task carries no
      parameters; the executor contacts the submitting client to fetch
      them before busy-looping for [fn_par] nanoseconds. *)
  val fetch_params : int
end

type t = {
  id : id;
  fn_id : int;
  fn_par : int;  (** argument; for [busy_loop]/[data_task], duration in ns *)
  tprops : tprops;
}

val pp : Format.formatter -> t -> unit
val equal : t -> t -> bool

(** [make ~uid ~jid ~tid ?tprops ~fn_id ~fn_par ()] builds a task. *)
val make :
  uid:int -> jid:int -> tid:int -> ?tprops:tprops -> fn_id:int -> fn_par:int ->
  unit -> t

(** [priority_level t] is the priority from TPROPS, defaulting to 1. *)
val priority_level : t -> int

(** [required_resources t] is the resource bitmap, defaulting to 0. *)
val required_resources : t -> int

(** [locality_nodes t] is the data-local node list, defaulting to []. *)
val locality_nodes : t -> int list

(** [relative_deadline t] is the relative deadline in ns, if any. *)
val relative_deadline : t -> int option

(** [tenant t] is the tenant id, if any. *)
val tenant : t -> int option
