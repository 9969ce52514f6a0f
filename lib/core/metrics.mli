(** Experiment metrics, shared by Draconis and every baseline scheduler.

    Metrics records samples.  Every scheduler — the Draconis switch
    program and each baseline — its clients and its executors call the
    [note_*] functions directly.  Metrics correlates client-side events
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

    Each note is also one {!milestone} of the stream an {!observe}r
    reads; what a reader derives from it (phase attribution:
    {!Journey}) lives in the reader. *)

open Draconis_sim
open Draconis_net
open Draconis_stats
open Draconis_proto

type placement = { mutable local : int; mutable same_rack : int; mutable remote : int }

(** Which circular-queue repair flag tripped (paper §4.7). *)
type repair_flag = Add_flag | Retrieve_flag

(** ["add"] or ["retrieve"]. *)
val repair_flag_name : repair_flag -> string

(** What each [note_*] below reports to the {!observe}r: one
    constructor per note. *)
type milestone =
  | Submitted of Task.id  (** {!note_submit} *)
  | Sent of Task.t list  (** {!note_sent} *)
  | Resubmitted of Task.id  (** {!note_resubmit} *)
  | Arrived of Task.t list  (** {!note_arrive} *)
  | Enqueued of { id : Task.id; level : int }  (** {!note_enqueue} *)
  | Ranked of { id : Task.id; rank : int }  (** {!note_rank} *)
  | Rejected of Task.t list  (** {!note_reject} *)
  | Dequeued of { id : Task.id; level : int; rank : int }  (** {!note_dequeue} *)
  | Swap_started of Task.id  (** {!note_swap_start} *)
  | Swapped of { into : Task.id; out : Task.id; level : int }  (** {!note_swap} *)
  | Spun of Task.id  (** {!note_spin} *)
  | Recirculated of string  (** {!note_recirculate} *)
  | Repair_flagged of { flag : repair_flag; level : int }  (** {!note_repair_flag} *)
  | Pop_scan_started  (** {!note_pop_scan} *)
  | Noop  (** {!note_noop} *)
  | Assigned of { id : Task.id; node : int }  (** {!note_assign} *)
  | Started of { task : Task.t; node : int; port : int }  (** {!note_exec_start} *)
  | Finished of { task : Task.t; node : int; port : int }  (** {!note_exec_finish} *)
  | Completed of Task.id  (** {!note_complete} *)

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

(** [observe t f] installs the observer of [t]'s state, shared by
    every handle on it: each note also calls [f] with its milestone,
    which adds to the samples and never replaces them.  [f] runs inline
    where the note is made, so it adds no engine event and, on a
    [remote] handle, no post; a lock serializes its calls, which come
    from two domains on a 2-lane sharded run.  Each entity's milestones
    reach it in that entity's order.  With no observer (every benchmark
    run and every unobserved figure run) a note builds no milestone.  An
    observed single-engine Draconis run installs the {!Journey} reader,
    so a caller that installs its own cannot also run that system
    observed.
    @raise Invalid_argument if [t] already has an observer. *)
val observe : t -> (milestone -> unit) -> unit

(** {2 Client-side events} *)

(** [note_submit t id] records a task's submission time; only the first
    submission counts (retries and timeout resubmissions measure
    against the original, as the paper's latency spikes do). *)
val note_submit : t -> Task.id -> unit

(** [note_complete t id ~resubmitted] records the end-to-end delay and
    drops the task's record, unless [resubmitted]: the client sent the
    task again after a timeout, so a stale copy may still start. *)
val note_complete : t -> Task.id -> resubmitted:bool -> unit

(** Observer only: the client put [tasks] on the wire (first send,
    full-queue retry or timeout resubmission); its timeout resubmits a
    task; a submission carrying [tasks] reached the switch's ingress. *)
val note_sent : t -> Task.t list -> unit

val note_resubmit : t -> Task.id -> unit
val note_arrive : t -> Task.t list -> unit

(** {2 Executor-side events} — every executor model notes its own
    tasks.  [port] is the executor's index within [node], or [-1] where
    the node runs tasks on a pool of executors it does not name
    (RackSched's node worker, Sparrow's worker). *)

(** [note_exec_start t task ~node ~port] records scheduling delay and
    placement for a task starting on [node]. *)
val note_exec_start : t -> Task.t -> node:int -> port:int -> unit

(** Observer only: the task ran to the end (a task lost to a crash
    never finishes). *)
val note_exec_finish : t -> Task.t -> node:int -> port:int -> unit

(** {2 Scheduler-side events} — the Draconis switch program and every
    baseline scheduler call these. *)

val note_enqueue : t -> Task.id -> level:int -> unit

(** [note_assign t id ~node ~requested_at] — the scheduler sent the
    task to an executor on [node]; [requested_at] is when the winning
    request reached the scheduler (get_task() latency, Fig. 13). *)
val note_assign : t -> Task.id -> node:int -> requested_at:Time.t -> unit

(** Observer only: [tasks] bounced off a full queue; a task left the
    switch queue, popped or swap-assigned ([rank] is the rank the PIFO
    rank store released it at, [-1] for a circular queue); a popped task
    failed the policy check and leaves on a swap packet (§5.1); a swap
    packet exchanged its carried task [into] for the pending [out] at
    [level]; a task rides a recirculation without landing (a multi-task
    continuation, a PIFO probe, a swap hop or a switch resubmission); a
    pointer-repair flag was set at [level], opening the queue's degraded
    window until the repair packet lands (§4.7). *)
val note_reject : t -> Task.t list -> unit

val note_dequeue : t -> Task.id -> level:int -> rank:int -> unit
val note_swap_start : t -> Task.id -> unit
val note_swap : t -> into:Task.id -> out:Task.id -> level:int -> unit
val note_spin : t -> Task.id -> unit
val note_repair_flag : t -> repair_flag -> level:int -> unit

(** Observer only (the switch program counts these facts itself): a
    PIFO-backed policy computed [rank] for a task being admitted (just
    before its {!note_enqueue}); the program produced a recirculation of
    [kind] ("swap", "resubmit", "repair-add", "repair-retrieve",
    "submission", "prio-request", "pifo-probe", "pifo-scan",
    "pifo-claim", "pifo-restart"); a PIFO pop began a fresh rank-store
    scan (restarts after a lost claim included); a no-op assignment was
    sent. *)
val note_rank : t -> Task.id -> rank:int -> unit

val note_recirculate : t -> kind:string -> unit
val note_pop_scan : t -> unit
val note_noop : t -> unit

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
