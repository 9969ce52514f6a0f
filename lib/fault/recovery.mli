(** Recovery metrics for a faulted run (paper §3.3).

    Summarizes how a system rode out an armed fault plan: how much
    queued state each fail-over destroyed, how long until the standby
    scheduler made its first assignment (time-to-first-assignment), how
    much work the clients re-drove (timeouts, resubmissions,
    abandonments), and what fraction of the run the scheduler was
    making decisions at all (availability over the
    {!Draconis_stats.Meter.timeline} of scheduling decisions).

    All fields derive from integer simulated-time counters, so two runs
    with the same seed produce byte-identical reports — the determinism
    check behind the [--jobs 1] vs [--jobs n] acceptance test. *)

open Draconis_sim

type report = {
  system : string;
  failovers : int;
  queued_lost : int;  (** tasks queued at the scheduler when it died *)
  recovery : Time.t option;
      (** first fail-over to the standby's first scheduling decision;
          [None] if no fail-over fired or nothing was assigned after *)
  timeouts : int;  (** [resubmitted + abandoned]: each timeout does one *)
  resubmitted : int;  (** summed over the target's clients *)
  abandoned : int;
  submitted : int;
  completed : int;
  unstarted : int;
  availability : float;
      (** fraction of [bucket]-sized slots in [\[0, until)] with at
          least one scheduling decision *)
}

(** [measure ?bucket ~metrics ~injector ~until ()] builds the report
    for a run observed through [metrics] over the window
    [\[0, until)]; the timeout counts come from the injector's target's
    clients ({!Target.t.clients}). *)
val measure :
  ?bucket:Time.t ->
  metrics:Draconis.Metrics.t ->
  injector:Injector.t ->
  until:Time.t ->
  unit ->
  report

val pp : Format.formatter -> report -> unit
