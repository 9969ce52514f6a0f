(** One operation in an adversarial fuzz schedule.

    A schedule is a time-sorted list of these; {!Draconis_fuzz.Exec}
    turns each into simulator events against the real switch pipeline.
    Ops serialize to single replay lines (`kind key=value ...`) that
    round-trip exactly, so shrunk reproducers are plain text. *)

open Draconis_sim

(** Task property attached to every task of a submission ([P_deadline]
    is a relative deadline in ns; [P_tenant] a WFQ tenant id). *)
type prop =
  | P_none
  | P_prio of int
  | P_rsrc of int
  | P_deadline of int
  | P_tenant of int

type t =
  | Submit of {
      at : Time.t;
      client : int;  (** client host index, [0 .. clients-1] *)
      uid : int;
      jid : int;
      count : int;  (** tasks in the job *)
      prop : prop;
    }
      (** A job submission.  Two [Submit] ops with the same [uid]/[jid]
          model a duplicate (retransmitted) submission. *)
  | Request of { at : Time.t; executor : int; prio : int }
      (** An executor-initiated task request with retrieve priority
          [prio] (0 or out-of-range values exercise the no-op path). *)
  | Loss of { at : Time.t; duration : Time.t; loss : float }
      (** Fabric-wide loss burst window. *)
  | Partition of { at : Time.t; hosts : int list; duration : Time.t }
      (** Partition the given host addresses off the fabric. *)
  | Straggler of { at : Time.t; executor : int; factor : float; duration : Time.t }
      (** Slow one executor's service time by [factor]. *)

val at : t -> Time.t
val with_at : t -> Time.t -> t

(** True for ops that can destroy packets in flight ([Loss],
    [Partition]) — their presence relaxes the conservation invariant. *)
val is_lossy : t -> bool

val to_string : t -> string

(** @raise Invalid_argument on malformed lines, with the offending
    line quoted. *)
val of_string : string -> t

(** @raise Invalid_argument when a field is out of range. *)
val validate : t -> unit

val pp : Format.formatter -> t -> unit
