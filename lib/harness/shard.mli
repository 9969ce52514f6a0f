(** Sharded (parallel-in-run) simulation: the [DRACONIS_SHARDS] knob.

    Where {!Pool.map} parallelizes {e across} independent grid points,
    a sharded run parallelizes {e inside} one simulation: the model is
    partitioned into logical processes ({!Draconis_sim.Lp}), each with
    its own engine, and a conservative barrier-window coordinator
    ({!Draconis_sim.Sync}) runs them in lockstep windows bounded by the
    fabric's minimum link latency ({!Draconis_net.Fabric.lookahead}).
    The knob sets how many logical processes a sharded figure run
    uses; how many domains run each window's per-LP thunks is
    {!Pool.jobs} ([--jobs]), capped at the LP count
    ({!Systems.draconis}).

    A sharded run must produce {e exactly} the outcomes of the
    [DRACONIS_SHARDS=1] run.  The real sharded cluster
    ({!Draconis.Cluster} with [shards]) carries that contract; its
    property tests compare every outcome field across shard counts and
    lane counts, unfaulted and under a fault plan armed through
    {!Draconis_fault.Injector}. *)

(** ["DRACONIS_SHARDS"]. *)
val env_var : string

(** Upper bound on the shard count (= {!Pool.max_jobs}). *)
val max_shards : int

(** The [DRACONIS_SHARDS] setting alone, ignoring any [set_shards]
    override ([None] when unset or empty).
    @raise Invalid_argument on a non-integer or out-of-range setting —
    a bad knob is a configuration error, never a preference. *)
val env_shards : unit -> int option

(** Process-wide shard count: the [set_shards] override if any, else
    [DRACONIS_SHARDS] if set and within [\[1, max_shards\]], else [1].
    @raise Invalid_argument on a non-integer or out-of-range setting. *)
val shards : unit -> int

(** Override the process-wide shard count.
    @raise Invalid_argument if [n < 1] or [n > max_shards]. *)
val set_shards : int -> unit

(** The shard count that was actually asked for — the [set_shards]
    override if any, else [DRACONIS_SHARDS] if set — or [None] when
    neither knob was touched.  Call sites that treat sharding as opt-in
    (the real-cluster figure harnesses) use this to stay on the legacy
    single-engine path by default, where {!shards}'s fallback of [1]
    cannot distinguish "unset" from "explicitly 1". *)
val requested : unit -> int option
