(** In-band network telemetry (INT) for the switch data path.

    Each pipeline traversal appends one compact {!stamp} — stage id, sim
    timestamp, queue/bank occupancy seen at access time, recirculation
    ordinal, and (for the rank store) bank id + probe outcome — to the
    packet's {!stack}, bounded by a validated header budget (default
    {!default_budget}, mirroring real INT hop limits).  Overflowing
    stamps are counted in [lost] instead of stored, so loss is
    accountable end to end.

    Stamps cost {e zero extra register accesses}: every field is a value
    the stamping site already read as part of its one permitted access
    (the enqueue occupancy comes from the add/retrieve pointers the
    pointer stage just fetched; the PIFO bank id from the probe that
    just claimed it).  The whole channel is gated on {!enabled} — the
    disabled path is one ref read per site.

    Host side, a {!Collector} drains stacks at reply delivery into
    per-queue/per-bank windowed depth series and per-stage latency
    histograms, exported as the ["int"] section of the draconis-obs/4
    metrics dump and rendered by [draconis-trace int]. *)

open Draconis_sim

(** Pipeline stage a stamp was taken in; [Ingress] marks the wire
    arrival (stamped with the fabric envelope's send time, so the first
    hop latency includes fabric transit). *)
type stage =
  | Ingress
  | Submission
  | Request
  | Completion
  | Swap
  | Resubmit
  | Repair_add
  | Repair_retrieve
  | Prio_scan
  | Pifo_probe
  | Pifo_scan
  | Pifo_claim
  | Forward

val stage_to_string : stage -> string

(** @raise Invalid_argument on an unknown stage name. *)
val stage_of_string : string -> stage

type probe_outcome = No_probe | Probe_hit | Probe_miss | Claim_won | Claim_lost

val probe_outcome_to_string : probe_outcome -> string

type stamp = {
  stage : stage;
  at : Time.t;
  hop : int;  (** recirculation ordinal: 0 on the first traversal *)
  level : int;  (** queue level, [-1] when not a levelled-queue access *)
  occupancy : int;  (** occupancy observed at access time, [-1] when unknown *)
  bank : int;  (** rank-store bank id, [-1] outside the rank store *)
  probe : probe_outcome;
}

(** Immutable stamp stack carried on an in-flight packet. *)
type stack

val stack_depth : stack -> int
val stack_lost : stack -> int

(** Stored stamps, oldest first. *)
val stack_stamps : stack -> stamp list

(** {2 Configuration} *)

val default_budget : int
val max_budget : int

(** Fast-path gate consulted by every stamping site; [false] by default. *)
val enabled : unit -> bool

val enable : ?budget:int -> unit -> unit
val disable : unit -> unit
val budget : unit -> int

(** @raise Invalid_argument unless [1 <= n <= max_budget]. *)
val set_budget : int -> unit

(** Parse a [DRACONIS_INT] value: ["0"] disables, ["N"] (1..{!max_budget})
    enables with header budget [N].
    @raise Invalid_argument on anything else — malformed values abort
    rather than silently defaulting. *)
val configure_of_string : string -> unit

(** Apply [DRACONIS_INT] from the environment (no-op when unset). *)
val apply_env : unit -> unit

(** {2 Per-traversal stamp builder}

    The pipeline arms a domain-local builder around each program
    invocation; stamping sites contribute fields via [note_*] (no-ops
    when unarmed), and {!commit_traversal} folds the assembled stamp
    onto the packet's stack.  Call sites must gate on {!enabled}. *)

val begin_traversal : unit -> unit
val note_stage : stage -> unit
val note_level : int -> unit
val note_occupancy : int -> unit
val note_bank : int -> unit
val note_probe : probe_outcome -> unit

(** Occupancy noted so far in the armed traversal, for in-situ checkers
    (the fuzz int-consistency invariant reads it at enqueue time). *)
val noted_occupancy : unit -> int option

(** Fresh stack for a wire arrival, holding the ingress stamp. *)
val ingress_stack : sent_at:Time.t -> stack

(** Disarm the builder and append its stamp at time [at]; past the
    header budget the stamp is counted in [lost] instead. *)
val commit_traversal : at:Time.t -> stack -> stack

(** {2 Host-side collector} *)

module Collector : sig
  type t

  (** Default depth-series bucket width: 100 µs. *)
  val default_window : Time.t

  (** @raise Invalid_argument on a non-positive window. *)
  val create : ?window:Time.t -> unit -> t

  (** Absorb a delivered packet's stamp stack. *)
  val deliver : t -> stack -> unit

  (** Account a stack lost in flight (fabric drop, recirc overflow,
      fail-over flush). *)
  val drop : t -> stack -> unit

  val stacks : t -> int
  val dropped_stacks : t -> int
  val stamps : t -> int
  val lost : t -> int

  (** Overall depth percentile for a queue level ([-1] = rank store);
      [None] if the level was never observed. *)
  val depth_percentile : t -> level:int -> float -> int option

  (** Recirculation chains with delivery counts, most frequent first
      (ties by chain string). *)
  val chains : t -> (string * int) list

  (** Emit one sample per (queue, window bucket): the bucket's p99
      depth, named [int.depth.q<level>] / [int.depth.pifo]. *)
  val emit_series : t -> (at:Time.t -> name:string -> int -> unit) -> unit

  (** The ["int"] section of the draconis-obs/4 dump. *)
  val to_json : t -> string
end

(** {2 Ambient collector} — domain-local, like the ambient
    {!Recorder}; delivery sites drain through it with O(1) disabled
    cost. *)

val current_collector : unit -> Collector.t option
val with_collector : Collector.t -> (unit -> 'a) -> 'a
val deliver_stack : stack -> unit
val drop_stack : stack -> unit
