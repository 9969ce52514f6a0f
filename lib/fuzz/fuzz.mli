(** Campaign driver: sweep a seed list through generate → execute
    (twice, for replication) → check, aggregate per-invariant
    evaluation counters, and shrink every failure into a small
    replayable artifact. *)

type failure = {
  seed : int;
  invariant : string;  (** first violated invariant *)
  detail : string;
  trace : string list;
  shrunk : Schedule.t;  (** minimized reproducer *)
  shrink_executions : int;
  artifact : string option;  (** where the reproducer was saved *)
}

type campaign = {
  seeds : int list;
  ops : int;
  bug : Exec.bug option;
  sharded : bool;  (** sharded smoke legs were requested *)
  checks : (string * int) list;  (** evaluations per invariant, summed *)
  failures : failure list;
}

val default_ops : int
val default_shrink_budget : int

(** [run_campaign ~seeds ()] sweeps the seed list.  [artifacts] is a
    directory to write shrunk reproducers into ([seed-N.fuzz]).
    Shrinking requires the {e same} invariant to fire again, so the
    minimizer cannot drift onto a different bug.  With [~sharded:true]
    every (bug-free) schedule also executes through the sharded LP data
    path at 1 and 2 shards ({!Exec.run_sharded}), feeding the
    sharded-consistency invariant. *)
val run_campaign :
  ?bug:Exec.bug ->
  ?ops:int ->
  ?shrink_budget:int ->
  ?artifacts:string ->
  ?sharded:bool ->
  seeds:int list ->
  unit ->
  campaign

val ok : campaign -> bool

(** Invariants never evaluated during the campaign (a smoke sweep
    treats a non-empty answer as failure). *)
val unexercised : campaign -> string list

val to_json : campaign -> string
val render_text : campaign -> string

(** Human rendering of a single replayed schedule's report. *)
val render_report : Schedule.t -> Checker.report -> string
