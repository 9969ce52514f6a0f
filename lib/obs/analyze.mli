(** Offline phase-attribution analyzer behind [draconis-trace analyze].

    Loads a metrics export ({!Dump.metrics_json}, schema
    [draconis-obs/1] to [/4]) and reduces each run to its per-phase
    latency decomposition: count / sum / mean / p50 / p99 / max per
    {!Phase.t}, critical-path counts, anomaly tags, and the top-K
    slowest tasks with their full breakdowns.

    Beyond restating what the writer recorded, {!load} re-verifies
    exactness offline with integer arithmetic: the per-phase sums must
    add up to the recorded end-to-end total, and every top-K breakdown
    must sum to its task's total.  [verified] reports that independent
    check; [exact] is the writer's claim. *)

type phase_row = {
  phase : string;
  count : int;
  sum_ns : int;
  mean_ns : float;
  p50_ns : int;
  p99_ns : int;
  max_ns : int;
}

type top_entry = {
  task : string;
  total_ns : int;
  sched_ns : int;
  flags : string;
  breakdown : (string * int) list;
}

type attribution = {
  tasks : int;
  incomplete : int;
  exact : bool;  (** writer's in-run claim *)
  verified : bool;  (** offline integer re-check of all sums *)
  total_sum_ns : int;
  phases : phase_row list;  (** in file (causal) order *)
  critical : (string * int) list;
  anomalies : (string * int) list;
  top : top_entry list;
}

type run = {
  label : string;
  events : int;
  dropped_events : int;
  attribution : attribution option;
      (** [None] for runs recorded without phase attribution
          (baselines, plain obs runs). *)
}

val load : path:string -> (run list, string) result

(** Human-readable report: one block per run with the phase table,
    critical-path shares, anomalies, and top-K breakdown lines. *)
val render_text : run list -> string

(** [draconis-trace/1] JSON document. *)
val render_json : run list -> string

(** RFC 4180 CSV, one row per (run, phase):
    [label,phase,count,sum_ns,mean_ns,p50_ns,p99_ns,max_ns,share_pct]. *)
val render_csv : run list -> string
