(** Chrome trace-event exporter.

    Renders a list of run {!Recorder}s as Chrome trace-event JSON
    (object form, [traceEvents] array), loadable in Perfetto or
    [chrome://tracing].  Each recorder becomes one process (pid = list
    index, process name = run label); each track becomes a numbered
    thread with a [thread_name] metadata record.  Span begin/end map to
    phases B/E, instants to [i], counters to [C] with a [value]
    argument.  Timestamps convert from simulated nanoseconds to the
    format's microseconds with three decimals, losslessly. *)

(** JSON string-body escaping, shared with {!Dump}. *)
val escape : string -> string

val to_string : Recorder.t list -> string
val write : path:string -> Recorder.t list -> unit
