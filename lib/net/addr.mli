(** Network addresses in the simulated cluster.

    The cluster consists of hosts (clients, worker nodes, server-based
    schedulers) and a single programmable switch through which all
    scheduling traffic flows (paper §3.2: the controller forwards all
    job-submission traffic through one switch). *)

type t =
  | Switch  (** the programmable switch running the scheduler *)
  | Host of int  (** a server identified by a dense integer id *)

val equal : t -> t -> bool
val compare : t -> t -> int
val pp : Format.formatter -> t -> unit
val to_string : t -> string

(** [host_id a] is the id of a host address.
    @raise Invalid_argument on [Switch]. *)
val host_id : t -> int

val is_switch : t -> bool

(** Tables keyed on an address and a number that is only unique per
    address (an executor port, a probe id), hashed and compared without
    the polymorphic primitives. *)
module Port_tbl : Hashtbl.S with type key = t * int
