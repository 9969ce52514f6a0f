(** Switch pipeline: serial packet admission, program execution,
    bounded recirculation.

    The pipeline is parameterized over two packet types: ['wire] is what
    travels the fabric (the protocol messages hosts exchange), ['pkt] is
    the pipeline's internal view, which additionally includes the packet
    kinds a program fabricates and recirculates (repair packets, swap
    packets, ...).  [wrap] injects an arriving wire message into the
    internal type; internal packets never leave the switch except as
    emitted wire messages.

    Packets are admitted one at a time (a hardware pipeline starts one
    packet per clock; the per-packet admission slot models the inverse
    packet rate).  Each traversal runs the installed program under the
    pipeline's one {!Packet_ctx.t}, reset to an empty access set first,
    and produces outputs: emit to an endpoint, recirculate, or drop.  A
    program must not keep the context past its return.

    In-band telemetry: a packet that enters while an INT collector is
    installed ({!Draconis_obs.Int_telemetry.current_collector}) carries
    a stamp stack.  Each of its traversals commits the context's
    telemetry fields onto the stack, which then rides the emitted
    message that continues the packet (or drains at the switch).  A
    packet that entered with no collector installed is never stamped.

    Recirculation re-submits a packet from egress to ingress as a new
    packet (paper §4.3).  The recirculation port has far less bandwidth
    than the front-panel ports (paper §8.3); it is modeled as a
    fixed-rate server with a bounded queue, and overflow {e drops} the
    packet — exactly the mechanism behind R2P2-1's task losses. *)

open Draconis_sim
open Draconis_net

type ('wire, 'pkt) output =
  | Emit of Addr.t * 'wire  (** send out a front-panel port *)
  | Recirculate of 'pkt  (** loop back to ingress as a new packet *)
  | Drop  (** drop silently *)

(** A switch program maps one traversal to its outputs. *)
type ('wire, 'pkt) program = Packet_ctx.t -> 'pkt -> ('wire, 'pkt) output list

type config = {
  pipeline_latency : Time.t;  (** ingress-to-egress traversal time *)
  packet_slot : Time.t;  (** serial admission interval (1 / packet rate) *)
  recirc_latency : Time.t;  (** extra egress-to-ingress loop time *)
  recirc_slot : Time.t;  (** recirculation service interval (1 / recirc pps) *)
  recirc_queue_limit : int;  (** recirc packets queued before drops begin *)
}

(** Calibrated to a Tofino-class switch: 400 ns traversal, ~1 ns
    admission slot, 600 ns recirculation hop at 1/100 of line rate with
    a 64-packet loop queue. *)
val default_config : config

type ('wire, 'pkt) t

(** [attach ?config ?on_ingress fabric ~wrap program] builds the
    pipeline and registers it as the fabric handler for
    {!Addr.Switch}.  [on_ingress] observes every wire message the
    moment it is delivered at the switch, before admission — the only
    point where fabric transit can be split from pipeline time (used
    for phase attribution).  The program may be swapped later with
    {!set_program} (used when one experiment compares switch
    programs). *)
val attach :
  ?config:config ->
  ?on_ingress:('wire -> unit) ->
  'wire Fabric.t ->
  wrap:('wire -> 'pkt) ->
  ('wire, 'pkt) program ->
  ('wire, 'pkt) t

val set_program : ('wire, 'pkt) t -> ('wire, 'pkt) program -> unit

(** [flush_in_flight t] drops every packet currently inside the
    pipeline or waiting in the recirculation loop (they are counted as
    {!flushed} when their scheduled traversal fires) and resets the
    admission/recirculation ports to idle — what a fail-over standby
    sees: none of the dead switch's in-flight state. *)
val flush_in_flight : ('wire, 'pkt) t -> unit

(** [inject t pkt] submits a packet at ingress directly (bypassing the
    fabric); used by unit tests. *)
val inject : ('wire, 'pkt) t -> 'pkt -> unit

(** The pipeline's one packet context.  Between traversals it still
    holds the last traversal's access set and telemetry fields; the
    fuzz rig reads the occupancy an enqueue stamped there from inside
    the program's hooks. *)
val context : ('wire, 'pkt) t -> Packet_ctx.t

(** Counters, the one count of each fact.  Every [Recirculate] output
    counts once: in {!recirculated} if the loop-back port accepts it, in
    {!recirc_dropped} if its full queue drops it. *)
val processed : ('wire, 'pkt) t -> int

val recirculated : ('wire, 'pkt) t -> int
val recirc_dropped : ('wire, 'pkt) t -> int

(** Packets discarded by {!flush_in_flight} fail-overs. *)
val flushed : ('wire, 'pkt) t -> int

(** [recirculation_fraction t] is recirculated over total traversals —
    the paper's Fig. 7 metric. *)
val recirculation_fraction : ('wire, 'pkt) t -> float
