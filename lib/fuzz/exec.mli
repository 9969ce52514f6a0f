(** Execute a {!Schedule.t} against the real switch: the
    {!Draconis.Switch_program} over {!Draconis.Circular_queue}
    registers, driven through the {!Draconis_p4.Pipeline} and the
    latency-modeled {!Draconis_net.Fabric}, with fault ops armed via
    {!Draconis_fault.Injector}.

    The rig is fully deterministic: clients at [Host 0..], executors at
    [Host 100..] (odd-indexed executors pull — they complete tasks and
    piggyback the next request; even-indexed ones absorb, so runs can
    end with queued work), the switch program's milestones (through the
    observer of its {!Draconis.Metrics}) and host-side deliveries
    recorded into one event log for {!Checker.check}. *)

(** An intentionally (re-)introduced protocol bug — the fuzz harness's
    self-test.  Each maps to a hidden kill switch in
    {!Draconis.Circular_queue} that disables one safety check for the
    duration of the run. *)
type bug =
  | Skip_stamp_check
      (** dequeue trusts every slot: stale/free slots get resurrected *)
  | Drop_retrieve_repair
      (** retrieve-pointer overruns are never repaired: tasks strand *)

val bug_to_string : bug -> string

(** @raise Invalid_argument on unknown names. *)
val bug_of_string : string -> bug

(** Execute once; returns the recorded run for {!Checker.check}. *)
val run : ?bug:bug -> Schedule.t -> Checker.run

(** Execute through the {e sharded} data path: the same switch program
    and hosts, but partitioned over {!Draconis_sim.Lp} logical
    processes under {!Draconis_sim.Sync} barrier windows, with every
    host <-> switch message stamped through the
    {!Draconis_net.Fabric.router} mailboxes.  [shards] is 1 (every
    entity on one LP) or 2 (switch LP + host LP — all traffic crosses
    the LP boundary).  The schedule's fault ops arm through
    {!Draconis_fault.Injector} exactly as in {!run} — fabric windows on
    the router, straggler edges on the executors' LP — so the recorded
    run is a pure function of the schedule and, by the determinism
    contract, identical for both [shards] values up to host-side event
    interleaving (checked by the sharded-consistency invariant).
    @raise Invalid_argument if [shards] is not 1 or 2. *)
val run_sharded : shards:int -> Schedule.t -> Checker.run

(** Execute twice (replication) and check all invariants.  With
    [~sharded:true] (and no injected bug) the schedule also executes
    through {!run_sharded} at 1 and 2 shards, and the pair feeds the
    sharded-consistency invariant. *)
val run_checked : ?bug:bug -> ?sharded:bool -> Schedule.t -> Checker.report
