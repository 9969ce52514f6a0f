(** Invariant checking: replay a recorded execution against the
    {!Oracle} and an end-state audit of the real register state.

    {!Exec.run} records the switch program's milestones (read through
    its {!Draconis.Metrics} observer) and every host-side delivery into
    an event log; [check] replays that log through the oracle and
    compares the drained end state (pointers, repair flags, stamped
    entries) level by level.  Each invariant keeps an evaluation
    counter so a sweep can prove every invariant was actually
    exercised.  The first {!kept_per_invariant} violations of each
    invariant carry a causal trace — the event window leading up to the
    divergence — and the rest are counted. *)

open Draconis_proto

(** One entry of the recorded execution, in engine order.  [Switch]
    events are the switch program's milestones; [Submitted] /
    [Delivered] / [Returned] / [Completed] are host-side. *)
type event =
  | Submitted of { id : Task.id }  (** client sent a job copy holding this task *)
  | Switch of { milestone : Draconis.Metrics.milestone; int_occ : int option }
      (** one of the ten milestones the replay reads: enqueued,
          dequeued, swapped, assigned, rejected, no-op, repair flag,
          recirculated, ranked, pop scan started.  A dequeue's [rank] is
          the rank the PIFO rank store released, [-1] for a circular
          queue; pifo-order removes exactly the queued copy with this id
          and rank.  [int_occ] is, for an enqueue, the occupancy the
          switch's INT stamp recorded for the admission ([None] when the
          site took no occupancy stamp, e.g. a PIFO probe continuation,
          and for every other milestone) — checked against the oracle
          by the int-consistency invariant *)
  | Delivered of { id : Task.id; executor : int }
      (** assignment arrived at an executor *)
  | Returned of { id : Task.id }  (** queue_full bounced the task to its client *)
  | Completed of { id : Task.id }  (** completion arrived back at the client *)

val event_to_string : event -> string

(** Drained end state of one queue level. *)
type level_state = {
  add_ptr : int;
  retrieve_ptr : int;
  add_flag : bool;
  retrieve_flag : bool;
  pointer_occupancy : int;
  walk : Task.id list;
      (** stamped entries walked from retrieve to add pointer *)
  stamped : int;
      (** slots holding a stamp anywhere in the queue (a rank store,
          which has no stamps, reports its walk's length) *)
}

type run = {
  events : event array;
  levels : level_state array;
  fabric_lost : int;  (** injected loss + partition drops *)
  recirc_dropped : int;
  access_violation : string option;
      (** register name, when the one-access-per-register-per-packet
          rule was violated *)
  fingerprint : int64;  (** FNV-1a over every register cell after drain *)
  out_of_budget : int option;
      (** [Some budget] when the single-engine run stopped at its event
          budget with events still queued (a wedged rig); [None] for a
          drained run, and always for the sharded rig, which has a time
          bound instead *)
}

(** The invariant registry, in reporting order: no-lost-task,
    no-duplicate-task, fifo-order, occupancy-bound,
    pointer-convergence, stamp-validity, single-register-access,
    replication-consistency, pifo-order, int-consistency,
    sharded-consistency, progress. *)
val invariants : string list

type violation = {
  invariant : string;
  detail : string;
  trace : string list;  (** event window leading up to the divergence *)
}

(** Violations of one invariant kept with their detail and trace: 3. *)
val kept_per_invariant : int

type report = {
  checks : (string * int) list;  (** evaluations per invariant *)
  violations : violation list;
      (** the first {!kept_per_invariant} violations of each invariant,
          in detection order *)
  fired : (string * int) list;
      (** total violations of every invariant that fired, kept or not,
          in registry order *)
  strict : bool;
      (** whether conservation was checked exactly (no lossy faults, no
          recirculation drops, no access violation) *)
}

(** [check ?twin ?sharded schedule run] replays and audits.  When
    [twin] is the result of a second execution of the same schedule,
    replication consistency (identical fingerprints and event logs) is
    checked too.  When [sharded] is a pair of {!Exec.run_sharded}
    results for the same schedule at 1 and 2 shards, the
    sharded-consistency invariant checks cross-LP outcome equality:
    identical register fingerprints, drained queue state, drop
    counters, and switch-side event sequence (stamp-ordered, so exact),
    with host-side events compared as a multiset (their interleaving
    across LP engines is the one thing partitioning may legally
    change). *)
val check : ?twin:run -> ?sharded:run * run -> Schedule.t -> run -> report

val ok : report -> bool
