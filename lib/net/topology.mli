(** Rack topology of the simulated cluster.

    The locality experiments (paper §8.5) divide worker nodes into racks
    with distinct intra-rack and inter-rack storage-access latencies.
    Hosts are assigned to racks round-robin blocks: with [nodes] hosts
    and [racks] racks, host [i] lives in rack [i * racks / nodes]. *)

type t

(** [create ~nodes ~racks] assigns [nodes] hosts to [racks] racks in
    contiguous, maximally even blocks.
    @raise Invalid_argument unless [1 <= racks <= nodes]. *)
val create : nodes:int -> racks:int -> t

val nodes : t -> int
val racks : t -> int

(** [rack_of t host] is the rack index of [host] in [\[0, racks)]. *)
val rack_of : t -> int -> int

(** [same_rack t a b] is true if hosts [a] and [b] share a rack. *)
val same_rack : t -> int -> int -> bool

(** [hosts_in_rack t r] lists the hosts of rack [r], ascending. *)
val hosts_in_rack : t -> int -> int list
