(** Per-packet execution context for one pipeline traversal.

    Modern programmable switches allow each register to be operated on
    {e at most once per packet} (paper §2.1.1): granting multi-stage
    access would create read-write hazards between the packets that
    occupy different stages simultaneously.  This context records which
    registers the current packet has touched so {!Register} can enforce
    the rule — an illegal "P4 program" fails loudly instead of silently
    computing something no switch could.

    A recirculated packet re-enters the pipeline as a {e new} packet, so
    its traversal starts from an empty access set.  The {!Pipeline}
    owns one context and {!reset}s it at the start of every traversal,
    recirculations included, instead of allocating a fresh one. *)

type t

(** Raised by a second access to the same register during one traversal.
    Carries the register name. *)
exception Access_violation of string

val create : unit -> t

(** [reset t] empties the access set: [t] is now as good as a fresh
    context for the next traversal. *)
val reset : t -> unit

(** [mark_access t ~reg_id ~reg_name] records an access.
    @raise Access_violation if [reg_id] was already accessed. *)
val mark_access : t -> reg_id:int -> reg_name:string -> unit

(** [accessed t ~reg_id] is true if this packet already touched the
    register. *)
val accessed : t -> reg_id:int -> bool

(** Number of distinct registers accessed so far. *)
val access_count : t -> int
