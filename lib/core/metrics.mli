(** Experiment metrics, shared by Draconis and every baseline scheduler.

    Metrics records samples.  It correlates client-side events
    (submission, completion), executor events (task start), and
    switch/scheduler events (enqueue, assignment) by task id, and
    exposes the samplers behind each figure of the paper's evaluation:

    - {e scheduling delay} (Figs. 5a, 6, 8, 9): first submission of a
      task to the moment an executor starts running it;
    - {e end-to-end delay} (Fig. 10): submission to client-observed
      completion;
    - {e queueing delay by priority} (Fig. 12): scheduler enqueue to
      assignment;
    - {e get_task() delay by priority} (Fig. 13): request arrival at
      the scheduler to assignment emission;
    - {e scheduling decisions} (Figs. 5b, 11): assignment throughput;
    - {e placement mix} (Fig. 10): local / same-rack / remote counts.

    {b Per-task state.}  What the notes of one task have recorded — its
    first submission, and its first enqueue with the level — lives in
    one record, keyed by {!Task.Tbl}.  The record is created by the
    task's first {!note_submit} or {!note_enqueue} and dropped by its
    {!note_complete}, so live state is O(tasks in flight), not O(tasks
    run).  One exception: a task its client resubmitted keeps its
    record for the rest of the run.  A stale copy of it may still be
    queued or running, and that copy's start and assignment must find
    the first submission and enqueue, as they always have.  A note for
    a task with no record (already completed, or never submitted)
    records no delay sample.

    {b Phase journeys.}  When the run {!attribute}s phases, the record
    also carries the task's {!Draconis_obs.Trace_ctx.journey}, started
    by {!note_submit} and advanced by each milestone note.
    {!note_complete} seals it once and drops it from the record, so a
    resubmitted task's stale copy cannot touch the breakdown the
    collector holds by reference.  With attribution off (the default)
    the journey-only notes return before they allocate. *)

open Draconis_sim
open Draconis_net
open Draconis_stats
open Draconis_proto

type placement = { mutable local : int; mutable same_rack : int; mutable remote : int }

type t

(** [create ?topology engine] — [topology] enables placement
    classification for locality experiments.  Notes made through this
    handle act inline and allocate no closure. *)
val create : ?topology:Topology.t -> Engine.t -> t

(** [remote owner ~engine ~post] is a handle on [owner]'s state for an
    entity living on another logical process of a sharded run: every
    [note_*] captures the timestamp (and its arguments) from [engine] —
    the {e caller}'s LP clock — and defers the actual mutation as a
    closure through [post ~at:now], which is expected to route it to the
    owner's LP with a deterministic [(at, src, seq)] inbox stamp (see
    {!Draconis_net.Fabric.router_defer}).  The owner's state is thus
    only ever mutated from the owner's LP, in stamp order, making
    sampler contents bit-identical across shard counts. *)
val remote : t -> engine:Engine.t -> post:(at:Time.t -> (unit -> unit) -> unit) -> t

(** {2 Client-side events} *)

(** [note_submit t id] records a task's submission time; only the first
    submission counts (retries and timeout resubmissions measure
    against the original, as the paper's latency spikes do). *)
val note_submit : t -> Task.id -> unit

(** [note_complete t id ~resubmitted] records the end-to-end delay,
    seals the task's journey, and drops the task's record, unless
    [resubmitted]: the client sent the task again after a timeout, so a
    stale copy may still start. *)
val note_complete : t -> Task.id -> resubmitted:bool -> unit

(** Journey only: the client put [tasks] on the wire (first send,
    full-queue retry or timeout resubmission); its timeout resubmits a
    task; a submission carrying [tasks] reached the switch's ingress. *)
val note_sent : t -> Task.t list -> unit

val note_resubmit : t -> Task.id -> unit
val note_arrive : t -> Task.t list -> unit

(** {2 Executor-side events} *)

(** [note_exec_start t task ~node] records scheduling delay and
    placement for a task starting on [node]. *)
val note_exec_start : t -> Task.t -> node:int -> unit

(** The executors' hook ({!Executor.set_on_task}): {!note_exec_start}
    on [Started]; on [Finished], the journey's service edge. *)
val note_exec : t -> Executor.milestone -> Task.t -> node:int -> unit

(** {2 Scheduler-side events} — the {!Instrument.t} adapter wires these
    into the Draconis switch program; baselines call them directly. *)

val note_enqueue : t -> Task.id -> level:int -> unit
val note_assign : t -> Task.id -> requested_at:Time.t -> unit

(** The switch program's hooks into these notes: [on_enqueue] and
    [on_assign] sample delays; they and the task-carrying hooks advance
    journeys; [on_noop], [on_recirculate], [on_rank] and [on_pop_scan]
    are no-ops. *)
val instrument : t -> Instrument.t

(** {2 Phase attribution} *)

(** [attribute t rules] gives every task submitted from now on a
    journey, sealed under [rules].  Single-engine runs only: journey
    notes act inline, never through {!remote}.
    @raise Invalid_argument if [t] already attributes. *)
val attribute : t -> Draconis_obs.Trace_ctx.t -> unit

(** The collector of the sealed journeys, if [t] attributes. *)
val attribution : t -> Draconis_obs.Attribution.t option

(** Once, at the end of the run: records the open journeys as
    incomplete and returns the collector. *)
val finish_attribution : t -> Draconis_obs.Attribution.t option

(** {2 Results} *)

val scheduling_delay : t -> Sampler.t
val end_to_end_delay : t -> Sampler.t

(** [queueing_delay t ~level] (0-based level; empty sampler if unused). *)
val queueing_delay : t -> level:int -> Sampler.t

(** Scheduling delay per fairness class — a task's tenant id or
    priority level (0 otherwise) — sorted by class.  Feeds the PIFO
    experiment's fairness index and starvation measurements. *)
val delay_by_class : t -> (int * Sampler.t) list

(** Started tasks that carried a {!Task.Deadline} property. *)
val deadline_tracked : t -> int

(** Of {!deadline_tracked}, those whose scheduling delay exceeded their
    relative deadline. *)
val deadline_misses : t -> int

val get_task_delay : t -> level:int -> Sampler.t
val decisions : t -> Meter.t
val placement : t -> placement

val submitted : t -> int
val started : t -> int
val completed : t -> int

(** Live per-task records: tasks noted and not yet retired, plus every
    resubmitted task.  0 after a drained fault-free run. *)
val in_flight : t -> int

(** Tasks submitted but never started (lost or still queued at the end
    of the run), clamped at 0: starts are counted per assignment, so
    resubmitted tasks can start more than once. *)
val unstarted : t -> int
