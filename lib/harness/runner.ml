open Draconis_sim
open Draconis_stats
open Draconis
module Obs = Draconis_obs

type outcome = {
  system : string;
  load_tps : float;
  sched_p50 : int;
  sched_p99 : int;
  sched_mean : float;
  decisions_per_sec : float;
  submitted : int;
  started : int;
  completed : int;
  timeouts : int;
  rejected : int;
  recirc_fraction : float;
  recirc_drops : int;
  swaps : int;
  recirculations : int;
  repair_flags : int;
  events : int;
  events_per_sec : float;
  drained : bool;
  has_latency : bool;
  phases : (string * int * int) list;
}

let pp_outcome fmt o =
  Format.fprintf fmt
    "%s@%.0ftps: p50=%a p99=%a decisions=%.0f/s submitted=%d completed=%d%s" o.system
    o.load_tps Time.pp o.sched_p50 Time.pp o.sched_p99 o.decisions_per_sec o.submitted
    o.completed
    (if o.drained then "" else " (NOT DRAINED)")

type driver = Engine.t -> Rng.t -> submit:(Draconis_proto.Task.t list -> unit) -> unit

let drain_system (system : Systems.running) ~deadline =
  let control = system.control in
  let step = Time.ms 1 in
  let rec go () =
    if system.outstanding () = 0 then true
    else if control.Systems.now () >= deadline then false
    else begin
      control.Systems.run_until (min deadline (control.Systems.now () + step));
      go ()
    end
  in
  go ()

(* The run's end: the components' counters are read here, once. *)
let collect (system : Systems.running) ~load_tps ~horizon ~drained =
  let metrics = system.metrics in
  let delays = Metrics.scheduling_delay metrics in
  let has_samples = Sampler.count delays > 0 in
  let (c : Systems.counts) = system.counts () in
  ( {
    system = system.name;
    load_tps;
    sched_p50 = (if has_samples then Sampler.percentile delays 50.0 else 0);
    sched_p99 = (if has_samples then Sampler.percentile delays 99.0 else 0);
    sched_mean = (if has_samples then Sampler.mean delays else 0.0);
    decisions_per_sec = Meter.rate_over (Metrics.decisions metrics) ~duration:horizon;
    submitted = Metrics.submitted metrics;
    started = Metrics.started metrics;
    completed = Metrics.completed metrics;
    (* Every timeout resubmits its task or abandons it. *)
    timeouts = c.resubmitted + c.abandoned;
    rejected = c.rejected_tasks + c.server_rejected;
    recirc_fraction =
      (if c.processed = 0 then 0.0
       else float_of_int c.recirculated /. float_of_int c.processed);
    recirc_drops = c.recirc_dropped;
    swaps = c.swap_exchanges;
    recirculations = c.recirculations;
    repair_flags = c.repairs_launched;
    events = system.control.Systems.events ();
    events_per_sec = 0.0;
    drained;
    has_latency = true;
    phases = [];
  },
    c )

(* The recorder's name for each counter. *)
let counter_names (c : Systems.counts) =
  [
    ("fabric.sent", c.sent);
    ("fabric.delivered", c.delivered);
    ("fabric.lost", c.lost);
    ("fabric.partition_dropped", c.partition_dropped);
    ("fabric.undeliverable", c.undeliverable);
    ("pipeline.processed", c.processed);
    ("pipeline.recirculated", c.recirculated);
    ("pipeline.recirc_dropped", c.recirc_dropped);
    ("pipeline.flushed", c.flushed);
    ("switch.assignments", c.assignments);
    ("switch.noops", c.noops);
    ("switch.rejected_tasks", c.rejected_tasks);
    ("switch.swaps", c.swaps);
    ("switch.resubmissions", c.resubmissions);
    ("switch.repairs_launched", c.repairs_launched);
    ("switch.recirculations", c.recirculations);
    ("pifo.renumbers", c.renumbers);
    ("client.submitted", c.submitted);
    ("client.completed", c.completed);
    ("client.resubmitted", c.resubmitted);
    ("client.abandoned", c.abandoned);
    ("client.queue_full_bounces", c.queue_full_bounces);
    ("exec.tasks", c.executed);
  ]

(* When the sink is enabled, the whole run executes under an ambient
   recorder (each run is single-domain, so pool workers never share
   one), with probes sampling the system's instantaneous state, and the
   counters that moved while it was installed go to its registry: the
   counts read at installation exclude set-up (each worker's first pull
   request).  With the sink disabled this adds nothing but the [config]
   check. *)
let observed (system : Systems.running) ~label ~until f =
  match Obs.Sink.config () with
  | None -> fst (f ())
  | Some { Obs.Sink.probe_interval; capacity } ->
    let installed = system.counts () in
    let recorder = Obs.Recorder.create ~capacity ~label () in
    (* Phase attribution only where the whole milestone sequence exists
       (the Draconis data path); a baseline's partial stream would
       produce bogus breakdowns. *)
    let journeys =
      if system.phase_attribution then Some (Journey.create system.engine) else None
    in
    Option.iter (fun j -> Journey.attach j system.metrics) journeys;
    (* INT telemetry: reuse a caller-installed collector (the int bench
       experiment manages its own to read depth figures back), else own
       one for the run.  Either way its sections land on this run's
       recorder. *)
    let int_collector, own_int =
      if Obs.Int_telemetry.enabled () then
        match Obs.Int_telemetry.current_collector () with
        | Some c -> (Some c, None)
        | None ->
          let c = Obs.Int_telemetry.Collector.create () in
          (Some c, Some c)
      else (None, None)
    in
    let body () =
      (match system.probes () with
      | [] -> ()
      | probes -> Obs.Probe.attach system.engine ~interval:probe_interval ~until probes);
      f ()
    in
    let outcome, counts =
      Obs.Recorder.with_recorder recorder (fun () ->
          match own_int with
          | None -> body ()
          | Some c -> Obs.Int_telemetry.with_collector c body)
    in
    List.iter2
      (fun (name, before) (_, after) ->
        if after <> before then Obs.Recorder.add recorder name (after - before))
      (counter_names installed) (counter_names counts);
    let outcome =
      match journeys with
      | None -> outcome
      | Some journeys ->
        (* The run is over, so the collector is final. *)
        let collector = Journey.finish journeys in
        Obs.Recorder.set_attribution recorder (Obs.Attribution.to_json collector);
        { outcome with phases = Obs.Attribution.phase_percentiles collector }
    in
    (match int_collector with
    | None -> ()
    | Some c ->
      Obs.Int_telemetry.Collector.emit_series c (fun ~at ~name v ->
          Obs.Recorder.sample recorder ~at name v);
      Obs.Recorder.set_int_telemetry recorder (Obs.Int_telemetry.Collector.to_json c));
    Obs.Sink.put recorder;
    outcome

(* Process-wide workload-seed override (the bench --seed flag).  The
   historical default stays the figure-pinning constant so committed
   baselines remain reproducible byte for byte. *)
let default_workload_seed = 1_000_003
let workload_seed_override = ref None

let workload_seed () =
  Option.value ~default:default_workload_seed !workload_seed_override

let set_workload_seed seed = workload_seed_override := Some seed

(* Feed the driver's submissions into the system.  Single-engine
   systems take them live: the driver schedules directly on the
   system's engine.  A staged system (sharded cluster) instead gets the
   whole submission schedule up front: the driver runs against a
   throwaway staging engine whose only effect is to record each
   (time, job), and the recorded schedule is replayed through
   [control.stage] — which pins every job onto the owning client's LP
   {e before} any simulated time advances, so the pre-run event order
   (and hence the outcome) is independent of the shard count. *)
let feed (system : Systems.running) ~driver ~horizon rng =
  match system.control.Systems.stage with
  | None -> driver system.engine rng ~submit:system.submit
  | Some stage ->
    let staging = Engine.create () in
    driver staging rng ~submit:(fun tasks -> stage ~at:(Engine.now staging) tasks);
    Engine.run ~until:horizon staging

let run (system : Systems.running) ~driver ~load_tps ~horizon ?drain ?workload_seed:ws
    () =
  let workload_seed = Option.value ws ~default:(workload_seed ()) in
  let drain = Option.value drain ~default:(4 * horizon) in
  let control = system.control in
  Fun.protect ~finally:control.Systems.close (fun () ->
      observed system
        ~label:(Printf.sprintf "%s@%.0ftps" system.name load_tps)
        ~until:(horizon + drain)
        (fun () ->
          let rng = Rng.create ~seed:workload_seed in
          feed system ~driver ~horizon rng;
          control.Systems.run_until horizon;
          let drained = drain_system system ~deadline:(horizon + drain) in
          control.Systems.finish ();
          collect system ~load_tps ~horizon ~drained))
