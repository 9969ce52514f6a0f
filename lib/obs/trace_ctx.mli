(** Per-task causal phase rules.

    A {!journey} is one task's ordered sequence of milestones (submit →
    sent → arrive → traversals → queue → dispatch → execution → reply).
    Each milestone charges the interval since the previous one to
    exactly one {!Phase.t} bucket and advances the journey's cursor, so
    by construction the buckets of a completed task {e telescope}: they
    sum to the client-observed end-to-end delay to the tick, whatever
    path the task took (recirculation hops, swaps, repair windows,
    queue-full bounces, timeout resubmissions).

    The journey is a plain value: its owner (the per-task record of
    [Draconis.Metrics]) decides which task it belongs to, and drops it
    when it {!seal}s it.  A {!t} holds a run's sealing rules: the
    {!Attribution.t} collector and the debug check.  Under the check
    (explicit [~check:true], or the [DRACONIS_PHASE_CHECK] environment
    variable) every seal re-verifies the sum and raises [Failure] on
    any discrepancy; the scheduling-phase prefix is additionally
    checked against the measured scheduling delay for tasks that
    executed exactly once. *)

open Draconis_sim

type t

(** [create ?check ?top_k ()] — [check] defaults to the
    [DRACONIS_PHASE_CHECK] environment variable ("1" enables,
    "0"/empty disable).
    @raise Invalid_argument on any other value of the variable. *)
val create : ?check:bool -> ?top_k:int -> unit -> t

val collector : t -> Attribution.t

(** [finish t ~incomplete] records [incomplete] journeys that were
    never sealed and returns the collector. *)
val finish : t -> incomplete:int -> Attribution.t

(** One task's journey. *)
type journey

(** Task accepted by a client: a fresh journey starting at [at]. *)
val start : at:Time.t -> journey

(** {2 Milestones} *)

(** Client put the task on the wire (initial send, full-queue retry, or
    timeout resubmission).  Charges {!Phase.Client}. *)
val sent : journey -> at:Time.t -> unit

(** Submission packet delivered at the switch.  Charges {!Phase.Fabric}. *)
val arrive : journey -> at:Time.t -> unit

(** Task rode a traversal without landing (multi-task continuation,
    swap hop, switch resubmission).  Charges pipeline time for the
    first traversal after arrival, recirculation after. *)
val spin : journey -> at:Time.t -> unit

(** Task landed in circular queue [level]. *)
val enqueue : journey -> at:Time.t -> level:int -> unit

(** Task bounced by a full queue (client will retry).  Tags
    {!Attribution.flag_reject}. *)
val reject : journey -> at:Time.t -> unit

(** Task left the queue (pop or swap-out).  Charges {!Phase.Queue}. *)
val dequeue : journey -> at:Time.t -> unit

(** Assignment emitted towards an executor. *)
val assign : journey -> at:Time.t -> unit

(** Executor began running the task.  Charges {!Phase.Dispatch}; the
    first start fixes the task's scheduling delay. *)
val exec_start : journey -> at:Time.t -> unit

(** Executor finished.  Charges {!Phase.Service}. *)
val exec_done : journey -> at:Time.t -> unit

(** {2 Anomaly tags} *)

val flag_swap : journey -> unit
val flag_resubmit : journey -> unit

(** Tags the journey as overlapping a pointer-repair window (§4.7) if
    it is queued at [level]. *)
val repair_window : journey -> level:int -> unit

(** [seal t j ~key ~at] — client observed completion of task [key]:
    charges {!Phase.Reply}, verifies the sum under the debug check,
    folds the journey into the collector, and feeds [phase.*]
    histograms of the ambient {!Recorder}.  The collector keeps the
    journey's phase buckets by reference, so a sealed journey must not
    see another milestone. *)
val seal : t -> journey -> key:Attribution.key -> at:Time.t -> unit
