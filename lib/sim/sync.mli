(** Conservative barrier-window synchronization for sharded simulation.

    Classic conservative parallel DES, specialised to the barrier-window
    (a.k.a. "bounded lag") protocol: given logical processes whose
    cross-LP messages always carry at least [lookahead] of latency, the
    coordinator repeatedly

    + computes the global floor [f] — the earliest pending event or
      inbox stamp across every LP;
    + injects every inbox message stamped below the safe horizon
      [f + lookahead] into its destination engine ({!Lp.inject});
    + runs every LP's engine up to (and including) [f + lookahead - 1] —
      in parallel when an [executor] fans the per-LP thunks out over
      domains, inline otherwise;
    + barriers, and goes again.

    Any message sent during a window is stamped [send time + latency >=
    f + lookahead], i.e. beyond the horizon, so it can never be owed to
    an engine that already ran past it — the lookahead is what makes
    optimistic rollback unnecessary.  {!Lp.post} enforces this with the
    per-window floor.

    The window sequence is a pure function of the model (the floors do
    not depend on how LPs are grouped onto domains, nor on how entities
    are grouped onto LPs), which is the backbone of the sharded/
    sequential determinism contract: a run with one worker domain and a
    run with eight execute the exact same windows. *)

type t

(** Runs a batch of per-LP thunks to completion, possibly in parallel.
    The default executor runs them inline, in array order — the
    bit-deterministic reference path. *)
type executor = (unit -> unit) array -> unit

(** [create ~lookahead lps].
    @raise Invalid_argument if [lookahead <= 0], [lps] is empty, or two
    LPs share an id. *)
val create : lookahead:Time.t -> Lp.t array -> t

val lookahead : t -> Time.t
val lps : t -> Lp.t array

(** Barrier windows executed so far — partition-independent, so equal
    across shard counts on the same model. *)
val windows : t -> int

(** Total events executed across all LP engines. *)
val executed : t -> int

(** Every LP drained: no pending engine events, no inbox messages. *)
val drained : t -> bool

(** [run ?until ?executor t] executes windows until every LP is drained
    (or owes only events beyond [until]).  As with {!Engine.run}, when
    [until] is given every LP clock is left at [until] exactly. *)
val run : ?until:Time.t -> ?executor:executor -> t -> unit
