(** Message fabric: latency-modeled, handler-based message delivery.

    A ['msg t] connects endpoints ({!Addr.t}) over the simulated
    engine.  Sending schedules delivery at the destination's registered
    handler after the modeled one-way latency (plus optional uniform
    jitter).  Host-to-host traffic transits the switch, so its latency
    is twice the host-to-switch latency.

    The fabric is reliable by default; two fault inputs inject loss:
    - [loss]: i.i.d. per-packet drop probability;
    - {!set_windows}: timed loss and cut windows, the fabric side of a
      fault plan ({!Draconis_fault.Injector}), checked on every send.
      Correlated loss bursts are loss windows.

    One drop rule holds on the classic fabric and the sharded
    {!router} alike: a packet to or from a host inside an active cut
    window is dropped without a draw; any other packet drops with
    probability [max (active window losses) loss].

    All randomness comes from the [rng] supplied at creation, keeping
    runs deterministic.  The fabric counts every send and every
    outcome of a send itself ({!sent} .. {!undeliverable}); every drop
    path, on the classic fabric and the {!router} alike, also marks the
    ambient {!Draconis_obs.Recorder}'s ["fabric"] track, so a recorded
    timeline shows fault activity. *)

open Draconis_sim

type 'msg envelope = {
  src : Addr.t;
  dst : Addr.t;
  sent_at : Time.t;
  payload : 'msg;
  int_ : Draconis_obs.Int_telemetry.stack option;
      (** INT stamp stack riding this message ({!Draconis_obs.Int_telemetry});
          drained into the ambient collector at delivery, accounted as
          dropped on any loss path *)
}

type 'msg t

type config = {
  host_to_switch : Time.t;  (** one-way host <-> switch latency *)
  jitter : Time.t;  (** uniform extra delay in [\[0, jitter\]] *)
  loss : float;  (** i.i.d. drop probability in [\[0, 1\]] *)
  detour_fraction : float;
      (** multi-rack deployments (paper §3.2) route scheduler traffic
          through a common ancestor switch, lengthening the path for a
          fraction of hosts (Li et al.: ~12%); hosts are assigned to the
          detour set deterministically by id *)
  detour_extra : Time.t;  (** extra one-way latency for detoured hosts *)
}

(** Calibrated default: 1.5 us one-way, 150 ns jitter, no loss, no
    detours (single-rack deployment). *)
val default_config : config

(** [detoured t host] is true when the host's scheduler path takes the
    longer route. *)
val detoured : 'msg t -> int -> bool

(** [lookahead config] is the conservative-synchronization lookahead the
    fabric's latency model guarantees: the minimum one-way latency of
    any link, i.e. [host_to_switch] (jitter and detours only add).  A
    sharded run may safely use it as the {!Draconis_sim.Sync} window
    bound.
    @raise Invalid_argument if the config models a zero-latency link
    ([host_to_switch = 0]), which admits no conservative window. *)
val lookahead : config -> Time.t

(** @raise Invalid_argument if any probability ([loss], [detour_fraction])
    is outside [\[0,1\]], or any latency
    ([host_to_switch], [jitter], [detour_extra]) is negative. *)
val create : ?config:config -> Engine.t -> Rng.t -> 'msg t

val engine : 'msg t -> Engine.t

(** [register t addr handler] installs the delivery handler for [addr].
    Re-registering replaces the previous handler. *)
val register : 'msg t -> Addr.t -> ('msg envelope -> unit) -> unit

(** [send t ?int_ ~src ~dst payload] delivers to [dst]'s handler after
    the modeled latency.  Messages to an endpoint with no handler are
    counted as [undeliverable] and dropped.  [int_] attaches an INT
    stamp stack to the message.
    @raise Invalid_argument if [src] and [dst] are equal. *)
val send :
  'msg t ->
  ?int_:Draconis_obs.Int_telemetry.stack ->
  src:Addr.t ->
  dst:Addr.t ->
  'msg ->
  unit

(** {2 Fault windows} *)

(** What a window does while active. *)
type fault =
  | Loss of float  (** every packet drops with this probability *)
  | Cut of int list
      (** all traffic to or from these hosts is dropped (and counted in
          {!partition_dropped}); the switch is never cut — its failure
          is modeled by fail-over instead *)

(** A fault active over the half-open interval [\[start, stop)]. *)
type window = { start : Time.t; stop : Time.t; fault : fault }

(** [set_windows t ws] replaces the fabric's fault windows.  They are
    data, not mutable controls: every send checks them against its own
    simulated time, so the sharded router's LPs agree on them without
    any runtime mutation.  On a router instance the call sets the
    windows of every instance of that router.  Set them before the run.
    @raise Invalid_argument on a window that ends before it starts, a
    loss outside [\[0,1\]], or a negative host id. *)
val set_windows : 'msg t -> window list -> unit

(** {2 Counters} — each the one count of its fact.  On a sharded
    {!router} a send counts on the sender's instance and a delivery on
    the destination's, so a deployment's totals are the sums over its
    instances. *)

(** Messages sent: the sum of the four outcomes below plus the messages
    still in flight. *)
val sent : 'msg t -> int

(** Messages delivered so far. *)
val delivered : 'msg t -> int

(** Messages lost to injected loss (i.i.d. or a loss window). *)
val lost : 'msg t -> int

(** Messages dropped because an endpoint was inside a cut window. *)
val partition_dropped : 'msg t -> int

(** Messages dropped for lack of a registered handler. *)
val undeliverable : 'msg t -> int

(** {2 Sharded router}

    [router] builds one fabric instance per logical process, all sharing
    a routing context: handlers register on the instance of the LP their
    entity lives on, and {e every} send — same-LP or cross-LP — is
    stamped into the destination LP's inbox ({!Draconis_sim.Lp.post})
    with [(arrival, entity id, seq)].  Latency jitter and loss are drawn
    from the {e sender entity}'s private stream (seeded from
    [(seed, entity)]), and the fault windows ({!set_windows}) are data
    over simulated time, so the outcome of a sharded run is independent
    of both the LP layout and the domain schedule.  Entity ids: the
    switch is 0, host [h] is [h + 1].

    A routed message arrives and drops exactly as on the classic
    fabric: the same counters, the same ["fabric"] marks, the same INT
    stack draining.  The recorder and the INT collector are
    domain-local, so they see the events of the LPs their own domain
    runs; an observed run keeps every window on the caller's domain
    ({!Draconis_harness} [Systems.draconis]).

    {!Draconis.Cluster} builds two layouts on a router: every entity on
    one LP, or the switch on LP 0 and every host on LP 1.  The
    benchmark's [busy-short-s2] workload runs the second. *)

(** [router ~lps ~switch_lp ~lp_of_host ~hosts ~seed ()] returns one
    instance per LP (same index as [lps]).  [lp_of_host] maps each host
    id in [\[0, hosts)] to its LP index; the switch lives on
    [switch_lp].
    @raise Invalid_argument on an empty [lps], out-of-range LP indexes,
    a config {!create} rejects, or a zero [host_to_switch] (no
    {!lookahead}). *)
val router :
  ?config:config ->
  lps:Draconis_sim.Lp.t array ->
  switch_lp:int ->
  lp_of_host:(int -> int) ->
  hosts:int ->
  seed:int ->
  unit ->
  'msg t array

(** [router_defer t ~src ~at fn] posts [fn] to the {e switch} LP's inbox
    at [at + lookahead], stamped with [src]'s entity id and the same
    per-entity sequence counter as [src]'s sends.  This is the deferral
    channel for cross-LP side effects that are not messages — metric
    mutations ({!Draconis_core} [Metrics.remote]) — keeping their
    application order a pure function of the stamps.
    @raise Invalid_argument on a non-router instance. *)
val router_defer : 'msg t -> src:Addr.t -> at:Draconis_sim.Time.t -> (unit -> unit) -> unit
