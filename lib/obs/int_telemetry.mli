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
    just claimed it).  The sites write the fields into the traversal's
    packet context ([Draconis_p4.Packet_ctx.telemetry]), and the
    pipeline commits them with {!commit_traversal} onto the packet's
    stack.  A packet carries a stack only if an INT collector is
    installed ({!current_collector}) when it enters the pipeline; with
    none installed nothing is stamped.

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

type probe_outcome = No_probe | Probe_hit | Probe_miss | Claim_won | Claim_lost

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

(** Whether an INT export was asked for ([--int-out]);
    [false] by default.  An observed run then installs a collector for
    its packets.  Stamping itself keys on the installed collector, not
    on this flag. *)
val enabled : unit -> bool

val enable : ?budget:int -> unit -> unit
val disable : unit -> unit
val budget : unit -> int

(** @raise Invalid_argument unless [1 <= n <= max_budget]. *)
val set_budget : int -> unit

(** {2 Stamp stacks} *)

(** Fresh stack for a wire arrival, holding the ingress stamp. *)
val ingress_stack : sent_at:Time.t -> stack

(** Append one traversal's stamp, taken at time [at]; past the header
    budget the stamp is counted in [lost] instead. *)
val commit_traversal :
  at:Time.t ->
  stage:stage ->
  level:int ->
  occupancy:int ->
  bank:int ->
  probe:probe_outcome ->
  stack ->
  stack

(** {2 Host-side collector} *)

module Collector : sig
  type t

  (** [window] is the depth-series bucket width, 100 µs by default.
      @raise Invalid_argument on a non-positive window. *)
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
    {!Recorder}.  The pipeline's ingress reads it to decide whether a
    packet gets a stack; delivery sites drain stacks through it. *)

val current_collector : unit -> Collector.t option
val with_collector : Collector.t -> (unit -> 'a) -> 'a
val deliver_stack : stack -> unit
val drop_stack : stack -> unit
