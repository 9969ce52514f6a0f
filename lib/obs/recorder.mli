(** Per-run event buffer and metrics registry.

    A recorder owns everything one simulation run observes: the typed
    event timeline ({!Event.t}, bounded by [capacity]), and a registry
    of named counters, gauges, histograms, and probe time series.  A
    recorder is single-domain by construction — one run executes
    entirely on one domain — so recording takes no locks.

    {2 Ambient installation}

    Components (fabric, pipeline, switch program, executors, clients)
    emit marks, spans and histogram samples through the {e ambient}
    recorder: a domain-local slot set with {!with_recorder}.  When no
    recorder is installed every ambient call is one domain-local read
    and a branch — O(1), no allocation.  The hot path keeps only marks
    and spans: components keep their own counters, and the runner
    {!add}s them to the registry when a run ends.  Parallel
    {!Draconis_harness.Pool} workers each install their own recorder in
    their own domain and never race.

    Merging a pooled sweep is done by collecting each job's recorder in
    submission order; within a recorder, events are already in emission
    order with non-decreasing timestamps, so the concatenation is the
    deterministic (run, time, seq) merge. *)

open Draconis_sim
open Draconis_stats

type t

(** Default event capacity: 2^20 events. *)
val default_capacity : int

(** [create ?capacity ~label ()] — [label] names the run in exports
    (e.g. ["Draconis\@48000tps"]).  Once [capacity] events are stored,
    later events are counted in {!dropped} instead of stored, keeping
    the retained prefix valid. *)
val create : ?capacity:int -> label:string -> unit -> t

val label : t -> string
val event_count : t -> int

(** Events discarded because the buffer reached capacity. *)
val dropped : t -> int

(** [set_attribution t json] attaches a pre-rendered
    {!Attribution.to_json} fragment; {!Dump} embeds it in the run's
    metrics export. *)
val set_attribution : t -> string -> unit

val attribution : t -> string option

(** [set_int_telemetry t json] attaches a pre-rendered
    {!Int_telemetry.Collector.to_json} fragment; {!Dump} embeds it as
    the run's ["int"] section. *)
val set_int_telemetry : t -> string -> unit

val int_telemetry : t -> string option

(** Timestamp of the first stored event ([max_int] when the buffer is
    empty); {!Sink.drain}'s deterministic-order tie-break. *)
val first_event_at : t -> Time.t

(** Stored events, in emission order. *)
val events : t -> Event.t list

val iter_events : t -> (Event.t -> unit) -> unit

(** {2 Registry} — all listings are sorted by name for deterministic
    export. *)

(** [add t name n] bumps named counter [name] by [n], creating it at 0
    on first use. *)
val add : t -> string -> int -> unit

(** [counter_value t name] is the counter's total ([0] if never bumped). *)
val counter_value : t -> string -> int

val set_gauge : t -> string -> int -> unit

(** [observe t name v] records [v] into the named histogram. *)
val observe : t -> string -> int -> unit

val counters : t -> (string * int) list
val gauges : t -> (string * int) list
val histograms : t -> (string * Sampler.t) list

(** Probe time series, chronological. *)
val series : t -> (string * (Time.t * int) list) list

(** {2 Typed emission} (explicit recorder) *)

val instant : t -> at:Time.t -> track:string -> string -> unit

(** [sample t ~at name v] appends [(at, v)] to the named time series
    {e and} emits a counter event on track [name] so probes show up in
    the exported timeline. *)
val sample : t -> at:Time.t -> string -> int -> unit

(** {2 Ambient recorder} *)

val current : unit -> t option
val active : unit -> bool

(** [with_recorder t f] installs [t] for the duration of [f] in the
    calling domain, restoring the previous installation after. *)
val with_recorder : t -> (unit -> 'a) -> 'a

(** {2 Ambient emission} — no-ops when no recorder is installed.
    Callers that must format a track or name should guard with
    {!active} (or cache the string) so the disabled path stays free. *)

val record : string -> int -> unit
val begin_span : at:Time.t -> track:string -> string -> unit
val end_span : at:Time.t -> track:string -> string -> unit
val mark : at:Time.t -> track:string -> string -> unit
val probe_sample : at:Time.t -> string -> int -> unit
