(** Per-packet execution context for one pipeline traversal.

    Modern programmable switches allow each register to be operated on
    {e at most once per packet} (paper §2.1.1): granting multi-stage
    access would create read-write hazards between the packets that
    occupy different stages simultaneously.  This context identifies
    the current traversal and lists the registers it has touched, so
    {!Register} can enforce the rule — an illegal "P4 program" fails
    loudly instead of silently computing something no switch could.

    A recirculated packet re-enters the pipeline as a {e new} packet, so
    its traversal starts from an empty access set.  The {!Pipeline}
    owns one context and {!reset}s it at the start of every traversal,
    recirculations included, instead of allocating a fresh one.

    {b Stamps.}  Every traversal has a stamp that no other traversal of
    any context in the process shares: the context's id, drawn once at
    {!create} from an [Atomic] counter, over a traversal number that
    {!reset} advances.  A process has [2{^ (62 - traversal_bits)} - 1]
    context ids and a context [2{^ traversal_bits}] traversals; running
    out of either raises [Failure] instead of wrapping, so a stamp is
    never reused.  A stamp is never [0].

    {b Telemetry.}  The context also carries the fields of the
    traversal's INT stamp ({!Draconis_obs.Int_telemetry}), the way a
    Tofino carries a value from one stage to the next: as per-packet
    metadata.  The stamping sites write values they already hold, and
    the {!Pipeline} commits the fields onto the packet's stamp stack
    when the packet carries one. *)

(** Raised by a second access to the same register during one traversal.
    Carries the register name. *)
exception Access_violation of string

(** The ids of the registers this traversal has touched, in access
    order: [ids.(0)] to [ids.(count - 1)].  {!Register} appends to it on
    every access and reads it only when a register's own stamp cannot
    decide; apart from {!reset}, nothing else writes it. *)
type touched = { mutable ids : int array; mutable count : int }

(** The INT stamp fields of this traversal.  {!reset} sets them to
    "not observed": [Forward], [-1], [-1], [-1] and [No_probe]. *)
type telemetry = {
  mutable stage : Draconis_obs.Int_telemetry.stage;  (** the packet kind's stage *)
  mutable level : int;  (** queue level accessed *)
  mutable occupancy : int;  (** occupancy the admission decision read *)
  mutable bank : int;  (** rank-store bank id *)
  mutable probe : Draconis_obs.Int_telemetry.probe_outcome;
}

(** The fields are readable so that {!Register} checks an access
    without a call into this module (dev builds pass [-opaque], so no
    call inlines across modules); only this module sets [stamp]. *)
type t = private { mutable stamp : int; touched : touched; telemetry : telemetry }

(** Width of the traversal number in a stamp: two stamps belong to the
    same context iff they agree above these bits. *)
val traversal_bits : int

(** A context with a fresh id, on its first traversal.
    @raise Failure once the process has used every context id. *)
val create : unit -> t

(** [reset t] starts [t]'s next traversal with an empty access set and
    cleared telemetry: [t] is now as good as a fresh context.
    @raise Failure once [t] has used every traversal number. *)
val reset : t -> unit

(** Number of distinct registers accessed so far. *)
val access_count : t -> int
