(** Offline INT telemetry reports ([draconis-trace int]).

    Loads a [draconis-obs/3] metrics export, extracts the per-run
    ["int"] sections written by {!Int_telemetry.Collector.to_json}, and
    renders queue-depth heatmaps, per-stage hop latency, rank-store bank
    activity, top-K recirculation chains, and stamp-loss accounting.

    The per-queue totals in the dump are deliberately redundant with the
    bucketed depth series; {!recheck} re-derives them offline and
    reports any mismatch (the occupancy re-check). *)

type bucket = { b_at : int; b_count : int; b_p50 : int; b_p99 : int; b_max : int }

type queue = {
  qname : string;
  samples : int;
  qmax : int;
  overall_p50 : int;
  overall_p99 : int;
  series : bucket list;
}

type bank = {
  bname : string;
  bk_stamps : int;
  probe_hit : int;
  probe_miss : int;
  claim_won : int;
  claim_lost : int;
}

type stage_row = { sname : string; s_count : int; s_p50 : int; s_p99 : int; s_max : int }

type section = {
  budget : int;
  window_ns : int;
  stacks : int;
  dropped_stacks : int;
  stamps : int;
  lost : int;
  stages : stage_row list;
  queues : queue list;
  banks : bank list;
  chains : (string * int) list;
}

type run = { label : string; int_ : section option }

val load : path:string -> (run list, string) result
(** Parse a metrics export.  Unlike [Analyze.load] this demands schema
    [draconis-obs/3] or [/4] — earlier schemas cannot carry an ["int"]
    section, so pointing the command at one is a usage error worth
    failing loudly on. *)

val recheck : section -> string list
(** Internal-consistency failures (empty = pass): per-queue sample
    counts and maxima must re-derive from the bucketed series, bucket
    quantiles must be monotone, and per-stage stamp counts must sum to
    the section total. *)

val render_text : ?top:int -> run list -> string
(** Human-readable report; [top] bounds the recirculation-chain list
    (default 10). *)

val render_json : run list -> string
val render_csv : run list -> string
(** CSV of the raw depth series, one row per queue bucket. *)
