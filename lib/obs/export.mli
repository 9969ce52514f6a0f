(** The observability exports of one invocation, shared by both front
    ends ([draconis-sim] and the bench executable): each parses its own
    flags into a {!request}. *)

type request = {
  trace_out : string option;  (** Chrome trace-event timeline *)
  metrics_out : string option;  (** metrics dump; a [.csv] path selects CSV *)
  int_out : string option;  (** metrics dump with INT sections; turns stamping on *)
  int_budget : int option;  (** INT header budget *)
  probe_interval_us : int option;  (** probe period, simulated us, >= 1 *)
  max_trace_events : int option;  (** per-run event-buffer bound, >= 1 *)
}

(** [with_exports request f] applies [int_budget]; turns INT stamping
    on for [int_out]; enables the sink if any export
    is asked for; runs [f]; then drains the sink and writes each file,
    re-parsing the trace, with one ["wrote ..."] line per file on
    stdout.  An invalid setting or a malformed trace prints the reason
    on stderr and exits 1. *)
val with_exports : request -> (unit -> unit) -> unit
