(** Aggregation of per-task phase decompositions ({!Trace_ctx} seals
    each completed task into a collector): per-phase histograms,
    critical-path extraction (which phase dominates each task), the
    top-K slowest tasks with their full breakdowns, and anomaly tags
    for tasks hit by swaps, repair windows, resubmissions, or queue
    rejections.

    All listings follow {!Phase.all} order and top-K ties break on the
    task key, so every rendering is deterministic. *)

open Draconis_sim
open Draconis_stats

(** Task key: (uid, jid, tid). *)
type key = int * int * int

(** {2 Anomaly flag bits} *)

val flag_swap : int
val flag_repair : int
val flag_resubmit : int
val flag_reject : int

(** One sealed task: its end-to-end total, scheduling delay ([-1] if it
    never started), per-phase buckets indexed by {!Phase.index}, and
    anomaly flags. *)
type breakdown = {
  key : key;
  total : Time.t;
  sched : Time.t;
  phases : int array;
  flags : int;
}

type t

(** [create ?top_k ()] — [top_k] bounds the slowest-task list (10). *)
val create : ?top_k:int -> unit -> t

(** [add t b] folds one sealed task in (histograms, sums, critical
    path, anomalies, top-K). *)
val add : t -> breakdown -> unit

(** [note_incomplete t n] records journeys that never completed. *)
val note_incomplete : t -> int -> unit

val sealed : t -> int
val incomplete : t -> int

(** [exact t] — whether every sealed task's phases summed exactly to
    its end-to-end delay (always true by construction; re-verified per
    seal so the exported report can prove it). *)
val exact : t -> bool

val total_sampler : t -> Sampler.t

(** Exact integer sum of the phase across all sealed tasks. *)
val phase_sum : t -> Phase.t -> int

val total_sum : t -> int

(** Slowest sealed tasks, worst first, at most [top_k]. *)
val top : t -> breakdown list

(** [(name, count)] anomaly tags, fixed order. *)
val anomalies : t -> (string * int) list

(** [(phase, p50_ns, p99_ns)] per phase; [[]] before the first seal. *)
val phase_percentiles : t -> (string * int * int) list

(** JSON object fragment embedded in the metrics dump ([attribution]
    field of the [draconis-obs/2] run schema). *)
val to_json : t -> string
