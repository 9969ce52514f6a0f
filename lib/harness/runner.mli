(** Experiment runner: drive a workload into a running system, then
    collect the paper's metrics.

    A run has three phases: submissions are generated over the
    measurement [horizon]; the system then gets [drain] extra simulated
    time to finish outstanding tasks; finally the metrics are frozen
    into an {!outcome}.  At overload (the right-hand edge of the paper's
    load sweeps) the drain deadline cuts the run off and the outcome
    reports how much work was left. *)

open Draconis_sim


type outcome = {
  system : string;
  load_tps : float;  (** offered load *)
  sched_p50 : int;  (** scheduling-delay percentiles, ns *)
  sched_p99 : int;
  sched_mean : float;
  decisions_per_sec : float;
  submitted : int;
  started : int;
  completed : int;
  timeouts : int;
  rejected : int;  (** tasks bounced by a full scheduler queue *)
  recirc_fraction : float;
  recirc_drops : int;
  swaps : int;  (** switch task swaps (§5.1); 0 for baselines *)
  recirculations : int;  (** scheduler-produced recirculations *)
  repair_flags : int;  (** circular-queue repair-flag trips (§4.7) *)
  events : int;  (** simulation events the engine executed *)
  events_per_sec : float;
      (** wall-clock event throughput; informational (never checked by
          [draconis-trace compare]) and only serialized when positive —
          the engine-bench row uses it, figure rows leave it 0 *)
  drained : bool;
  has_latency : bool;
      (** whether the scheduling-latency block ([sched_p50]/[sched_p99]/
          [sched_mean]/[decisions_per_sec]) is meaningful for this row.
          Calendar-only benchmark rows (engine-bench) set it false, and
          the JSON report then serializes those fields as [null] so
          [draconis-trace compare] cannot regress against garbage
          zeros. *)
  phases : (string * int * int) list;
      (** per-phase (name, p50 ns, p99 ns) latency decomposition from
          the {!Draconis.Journey} reader; non-empty only when the run
          executed under an enabled {!Draconis_obs.Sink} on a system
          with {!Systems.running.phase_attribution} *)
}

val pp_outcome : Format.formatter -> outcome -> unit

(** A workload driver: schedules job submissions on the engine.  The
    [submit] callback assigns ids and sends; drivers come from
    {!Draconis_workload.Arrival} / {!Draconis_workload.Google_trace}. *)
type driver = Engine.t -> Rng.t -> submit:(Draconis_proto.Task.t list -> unit) -> unit

(** The effective workload seed: the [set_workload_seed] override if
    any, else the historical figure-pinning default (1_000_003). *)
val workload_seed : unit -> int

(** Process-wide workload-seed override (the bench [--seed] flag);
    applies to every subsequent [run] that passes no explicit
    [?workload_seed]. *)
val set_workload_seed : int -> unit

(** [run system ~driver ~load_tps ~horizon ?drain ?workload_seed ()] —
    [drain] defaults to 4x the horizon, [workload_seed] to
    {!workload_seed}[ ()].

    Time advances through the system's {!Systems.control}, so the same
    call drives a single engine or a sharded cluster's barrier-window
    protocol.  When the control requires staging ([stage = Some]), the
    driver first runs against a throwaway engine to record its
    submission schedule, which is then replayed onto the owning client
    LPs before any simulated time advances.  The control is closed
    (worker domains joined) before returning, even on exception. *)
val run :
  Systems.running ->
  driver:driver ->
  load_tps:float ->
  horizon:Time.t ->
  ?drain:Time.t ->
  ?workload_seed:int ->
  unit ->
  outcome
