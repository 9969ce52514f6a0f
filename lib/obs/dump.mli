(** Flat metrics exporter: the registry of every run as JSON or CSV.

    JSON shape ([draconis-obs/4] schema): a [runs] array with one entry
    per recorder holding its label, event total and [dropped_events]
    count (events discarded at the recorder's capacity bound),
    counters, gauges, histogram summaries (count/min/max/mean/p50/p99),
    probe time series as [[t_ns, value]] pairs, and — when the run
    carried phase attribution — an [attribution] object
    ({!Attribution.to_json}).  The CSV form flattens the registry into
    RFC 4180 [label,kind,name,time_ns,value] rows (one row per series
    point, plus [recorder] rows for the event/drop totals).
    {!write_metrics} picks CSV when [path] ends in [.csv], JSON
    otherwise. *)

val metrics_json : Recorder.t list -> string
val write_metrics : path:string -> Recorder.t list -> unit
