(** Bench-report regression guard behind [draconis-trace compare].

    Diffs two [draconis-bench/1] JSON reports ({!Draconis_harness.Report}).
    Outcomes are matched by (experiment, system, load); a key a report
    repeats (figf runs each system and load once per fault plan) is
    matched by occurrence — the n-th with the n-th, shown as
    ["key#n"] from the second on.  Each
    deterministic field is checked symmetrically against
    [|cur - base| <= max(floor, tol_pct * |base|)] where [floor] is a
    per-field absolute slack (1 us for latency fields, a few tasks for
    counters).  [drained] must match exactly, and every baseline
    outcome must still exist — a missing experiment or outcome is a
    failure, not a silent skip.

    Probe overhead makes engine event counts and wall time legitimately
    vary between observed and unobserved runs, so [events],
    [wall_s]-derived fields, and extra outcomes present only in the
    current report are reported as notes, never failures.  Per-phase
    percentiles ([phases], present when a run carried attribution) are
    compared with the latency tolerance when both sides have them. *)

type check = {
  key : string;  (** ["experiment/system\@load"], ["#n"]-suffixed on repeats *)
  field : string;
  base : float;
  cur : float;
  allowed : float;  (** absolute delta permitted *)
  ok : bool;
}

type t = {
  tol_pct : float;
  checks : check list;  (** deterministic (file, field-spec) order *)
  missing : string list;  (** baseline outcomes absent from current — failures *)
  extra : string list;  (** current-only outcomes — informational *)
  notes : string list;
}

(** [compare_files ?tol_pct ~base_path ~cur_path] — [tol_pct] defaults
    to [0.10] (±10%). *)
val compare_files :
  ?tol_pct:float -> base_path:string -> cur_path:string -> unit -> (t, string) result

val passed : t -> bool

(** Failing checks first, then missing keys, notes, and a PASS/FAIL
    verdict line.  Deterministic. *)
val render : t -> string
