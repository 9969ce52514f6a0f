(* Repo benchmark for the Draconis scheduler data path (paper §4-§6, §8).

   Drives the real deployment -- [Systems.draconis_cluster] under
   [Runner.run] -- on four open-loop Poisson workloads and reports what
   the host pays for the simulation (completed tasks per wall second,
   minor words per task, peak heap, set-up time) next to the simulated
   result (scheduling-delay p50/p99).  With [--trace 1] the same
   workloads run with timing wrappers installed from outside the library
   ([Pipeline.set_program], [Fabric.register], a timing [Sync.executor])
   and the wall time is split by layer.

   Usage:
     draconis_bench.exe --workload NAME [--seed N] [--seconds S]
                        [--trace 0|1] [--trace-out FILE] [--quick]

   --workload   idle-poll | busy-short | pifo-edf | busy-short-s2; without
                it every workload runs in turn in this process
   --seed       workload seed (default 1000003)
   --seconds    measure for at least this long: reps repeat until then,
                at least 5 of them (default 10; --quick runs 1 rep)
   --trace 1    alternate untraced and traced reps and report the
                per-layer metrics instead of the end-to-end ones
   --trace-out  also write the per-layer report as JSON to FILE
   --quick      tiny horizons and one rep (the runtest alias)

   Every metric prints as "name value unit"; the last line of stdout is
   one JSON object {"correct", "attempted", "failed", "metrics"}.  Any
   failed check exits 1. *)

open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis
open Draconis_workload
module Pipeline = Draconis_p4.Pipeline
module Runner = Draconis_harness.Runner
module Systems = Draconis_harness.Systems
module Pool = Draconis_harness.Pool

let now_ns () = Int64.to_int (Monotonic_clock.now ())
let minor_words () = int_of_float (Gc.minor_words ())

(* -- workloads ------------------------------------------------------------- *)

type workload = {
  name : string;
  policy : Policy.t;
  kind : Synthetic.kind;  (** task service-time distribution *)
  util : float;  (** offered load as a share of executor capacity *)
  horizon : Time.t;  (** simulated submission window of one rep *)
  shards : int option;
  queue_capacity : int;
  pipeline : Pipeline.config;
  tprops_of : (Rng.t -> Task.tprops) option;
}

let quick_horizon = Time.ms 10

let fcfs ~name ~kind ~util ~horizon ?shards () =
  {
    name;
    policy = Policy.Fcfs;
    kind;
    util;
    horizon;
    shards;
    queue_capacity = 164_000;
    pipeline = Pipeline.default_config;
    tprops_of = None;
  }

(* The [pifo] experiment's EDF deployment: a provisioned loop-back path,
   a 32-slot rank store, and mixed 20-500 us deadlines. *)
let pifo_edf =
  {
    name = "pifo-edf";
    policy = Policy.Edf { default_deadline = Time.us 250 };
    kind = Synthetic.Fixed_500us;
    util = 0.5;
    horizon = Time.ms 75;
    shards = None;
    queue_capacity = 32;
    pipeline =
      { Pipeline.default_config with recirc_slot = Time.ns 10; recirc_queue_limit = 4096 };
    tprops_of = Some (fun rng -> Task.Deadline (Time.us 20 + Rng.int rng (Time.us 480)));
  }

let workloads =
  [
    fcfs ~name:"idle-poll" ~kind:Synthetic.Fixed_500us ~util:0.30 ~horizon:(Time.ms 100) ();
    fcfs ~name:"busy-short" ~kind:Synthetic.Fixed_100us ~util:0.85 ~horizon:(Time.ms 150) ();
    pifo_edf;
    fcfs ~name:"busy-short-s2" ~kind:Synthetic.Fixed_100us ~util:0.85
      ~horizon:(Time.ms 100) ~shards:2 ();
  ]

(* The paper testbed: 10 workers x 16 executors, 2 clients. *)
let spec = Systems.default_spec

let rate_tps w =
  let executors = spec.Systems.workers * spec.Systems.executors_per_worker in
  w.util *. float_of_int executors *. 1e9 /. Synthetic.mean_duration w.kind

let driver w ~rate_tps ~horizon : Runner.driver =
 fun engine rng ~submit ->
  let arrivals =
    Arrival.uniform_spec ~rate_tps ~duration:(Synthetic.duration w.kind) ~horizon
  in
  let arrivals =
    match w.tprops_of with None -> arrivals | Some tprops_of -> { arrivals with tprops_of }
  in
  Arrival.drive engine rng arrivals ~submit

let build w =
  Systems.draconis_cluster
    ~policy_of:(fun _ -> w.policy)
    ~queue_capacity:w.queue_capacity ~pipeline_config:w.pipeline ?shards:w.shards spec

(* -- outside-in layer probes ---------------------------------------------- *)

let kinds =
  [| "task_request"; "job_submission"; "wire_other"; "repair"; "pifo_admit"; "pifo_pop";
     "other" |]

let kind_of : Switch_packet.t -> int = function
  | Switch_packet.Wire (Message.Task_request _) -> 0
  | Switch_packet.Wire (Message.Job_submission _) -> 1
  | Switch_packet.Wire _ -> 2
  | Switch_packet.Repair_add _ | Switch_packet.Repair_retrieve _ -> 3
  | Switch_packet.Pifo_admit _ -> 4
  | Switch_packet.Pifo_pop _ -> 5
  | Switch_packet.Swap _ | Switch_packet.Resubmit _ | Switch_packet.Prio_request _ -> 6

(* Wall time and minor words inside the wrapped calls of one rep. *)
type probe = {
  sw_ns : int array;  (** switch program time, per packet kind *)
  sw_calls : int array;
  mutable sw_words : int;
  mutable host_ns : int;  (** Executor.deliver time *)
  mutable host_calls : int;
  mutable host_words : int;
  lp_ns : int array;  (** per LP: time inside its window thunks *)
  mutable window_ns : int;  (** time inside executor calls *)
}

let new_probe ~lps =
  {
    sw_ns = Array.make (Array.length kinds) 0;
    sw_calls = Array.make (Array.length kinds) 0;
    sw_words = 0;
    host_ns = 0;
    host_calls = 0;
    host_words = 0;
    lp_ns = Array.make lps 0;
    window_ns = 0;
  }

let timed_program p program ctx pkt =
  let k = kind_of pkt in
  let t0 = now_ns () in
  let w0 = minor_words () in
  let out = program ctx pkt in
  let w1 = minor_words () in
  let t1 = now_ns () in
  p.sw_ns.(k) <- p.sw_ns.(k) + (t1 - t0);
  p.sw_calls.(k) <- p.sw_calls.(k) + 1;
  p.sw_words <- p.sw_words + (w1 - w0);
  out

(* A timed copy of the worker's port demux (Worker.create). *)
let timed_demux p worker (env : Message.t Fabric.envelope) =
  match env.Fabric.payload with
  | (Message.Task_assignment { port; _ } as msg)
  | (Message.Noop_assignment { port } as msg)
  | (Message.Param_data { port; _ } as msg) ->
    if port >= 0 && port < Worker.executor_count worker then begin
      let exec = Worker.executor worker port in
      let t0 = now_ns () in
      let w0 = minor_words () in
      Executor.deliver exec msg;
      let w1 = minor_words () in
      let t1 = now_ns () in
      p.host_ns <- p.host_ns + (t1 - t0);
      p.host_calls <- p.host_calls + 1;
      p.host_words <- p.host_words + (w1 - w0)
    end
  | _ -> ()

(* Each LP thunk is timed on whichever lane runs it; distinct LPs write
   distinct slots, and the team's batch barrier orders the windows. *)
let timed_executor p team thunks =
  let t0 = now_ns () in
  Pool.Team.run team
    (Array.mapi
       (fun i thunk () ->
         let a = now_ns () in
         thunk ();
         p.lp_ns.(i) <- p.lp_ns.(i) + (now_ns () - a))
       thunks);
  p.window_ns <- p.window_ns + (now_ns () - t0)

(* Install the probes on a freshly built system.  On a sharded cluster
   the worker handlers live on the host LP's fabric instance, which no
   public entry point exposes, so the host layer stays unwrapped there
   and the LP thunk times bound it instead.  The stock team is released
   and a team of the same size runs the timing executor. *)
let instrument p ~lanes cluster (running : Systems.running) =
  Pipeline.set_program (Cluster.pipeline cluster)
    (timed_program p (Switch_program.program (Cluster.program cluster)));
  match Cluster.sync cluster with
  | None ->
    let fabric = Cluster.fabric cluster in
    Array.iter
      (fun w -> Fabric.register fabric (Addr.Host (Worker.node w)) (timed_demux p w))
      (Cluster.workers cluster);
    running
  | Some sync ->
    let control = running.Systems.control in
    control.Systems.close ();
    let team = Pool.Team.create ~size:lanes in
    let run_until until = Cluster.run ~executor:(timed_executor p team) cluster ~until in
    {
      running with
      Systems.control =
        {
          control with
          Systems.run_until;
          (* the same cross-LP flush as the stock sharded control *)
          finish = (fun () -> run_until (control.Systems.now () + (2 * Sync.lookahead sync)));
          close = (fun () -> Pool.Team.shutdown team);
        };
    }

(* -- one rep --------------------------------------------------------------- *)

type rep = {
  setup_ns : int;
  wall_ns : int;
  words : float;  (** minor words allocated over Runner.run, all domains *)
  top_heap_words : int;  (** process-wide major-heap peak when the rep ends *)
  o : Runner.outcome;
  samples : int;  (** scheduling-delay samples *)
  traversals : int;
  recirculated : int;
  msgs : int;
  lost : int;  (** fabric loss, partition drops and undeliverable messages *)
  noops : int;
  assignments : int;
  repairs : int;
  windows : int;
  probe : probe option;
}

(* Messages delivered.  A sharded router counts deliveries on the
   destination's instance, and only the switch LP's is public; every
   host-bound message is posted to a host LP's inbox instead. *)
let messages cluster =
  let to_switch_lp = Fabric.delivered (Cluster.fabric cluster) in
  match Cluster.sync cluster with
  | None -> to_switch_lp
  | Some sync ->
    Array.fold_left
      (fun acc lp -> if Lp.id lp = 0 then acc else acc + Lp.posted lp)
      to_switch_lp (Sync.lps sync)

let time_setup w =
  let t0 = now_ns () in
  let cluster, running = build w in
  (now_ns () - t0, cluster, running)

let run_rep w ~seed ~horizon ~lanes ~traced =
  Gc.full_major ();
  let setup_ns, cluster, running = time_setup w in
  let probe =
    if traced then Some (new_probe ~lps:(Option.value w.shards ~default:1)) else None
  in
  let running =
    match probe with None -> running | Some p -> instrument p ~lanes cluster running
  in
  let rate_tps = rate_tps w in
  let before = (Gc.quick_stat ()).Gc.minor_words in
  let t0 = now_ns () in
  let o =
    Runner.run running ~driver:(driver w ~rate_tps ~horizon) ~load_tps:rate_tps ~horizon
      ~workload_seed:seed ()
  in
  let wall_ns = now_ns () - t0 in
  let stat = Gc.quick_stat () in
  let pipeline = Cluster.pipeline cluster in
  let program = Cluster.program cluster in
  let fabric = Cluster.fabric cluster in
  {
    setup_ns;
    wall_ns;
    words = stat.Gc.minor_words -. before;
    top_heap_words = stat.Gc.top_heap_words;
    o;
    samples =
      Draconis_stats.Sampler.count (Metrics.scheduling_delay (Cluster.metrics cluster));
    traversals = Pipeline.processed pipeline;
    recirculated = Pipeline.recirculated pipeline;
    msgs = messages cluster;
    lost = Fabric.lost fabric + Fabric.partition_dropped fabric + Fabric.undeliverable fabric;
    noops = Switch_program.noops program;
    assignments = Switch_program.assignments program;
    repairs = Switch_program.repairs_launched program;
    windows = (match Cluster.sync cluster with None -> 0 | Some s -> Sync.windows s);
    probe;
  }

(* The simulated outcome of a rep: every rep of one workload and seed,
   traced or not, must reproduce it exactly. *)
let fingerprint r =
  Printf.sprintf
    "submitted=%d completed=%d events=%d traversals=%d recirculated=%d p50=%dns p99=%dns"
    r.o.Runner.submitted r.o.Runner.completed r.o.Runner.events r.traversals
    r.recirculated r.o.Runner.sched_p50 r.o.Runner.sched_p99

let rep_violations r =
  let o = r.o in
  let failures = ref [] in
  let check ok fmt =
    Printf.ksprintf (fun msg -> if not ok then failures := msg :: !failures) fmt
  in
  check o.Runner.drained "run did not drain";
  check (o.Runner.completed = o.Runner.submitted) "completed %d <> submitted %d"
    o.Runner.completed o.Runner.submitted;
  check (o.Runner.timeouts = 0) "%d client timeouts" o.Runner.timeouts;
  check (o.Runner.rejected = 0) "%d queue rejections" o.Runner.rejected;
  check (o.Runner.recirc_drops = 0) "%d recirculation drops" o.Runner.recirc_drops;
  check (r.lost = 0) "%d messages lost on the fabric" r.lost;
  check (r.samples = o.Runner.completed) "%d delay samples for %d completed tasks"
    r.samples o.Runner.completed;
  check (r.assignments = o.Runner.completed) "%d assignments for %d completed tasks"
    r.assignments o.Runner.completed;
  check
    (o.Runner.sched_p50 > 0 && o.Runner.sched_p99 >= o.Runner.sched_p50)
    "scheduling delay p50 %d / p99 %d" o.Runner.sched_p50 o.Runner.sched_p99;
  (match r.probe with
  | None -> ()
  | Some p ->
    let calls = Array.fold_left ( + ) 0 p.sw_calls in
    check (calls = r.traversals) "switch wrapper saw %d traversals, pipeline processed %d"
      calls r.traversals);
  List.rev !failures

(* -- statistics and output ------------------------------------------------- *)

let median xs =
  match List.sort compare xs with
  | [] -> invalid_arg "median of no samples"
  | sorted ->
    let a = Array.of_list sorted in
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio a b = if b = 0.0 then 0.0 else a /. b
let tasks_per_s r = float_of_int r.o.Runner.completed /. (float_of_int r.wall_ns /. 1e9)

type metric = { key : string; value : float; unit : string }

let m key unit value = { key; value; unit }
let json_number v = Printf.sprintf "%.17g" v

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let json_metrics metrics =
  "{"
  ^ String.concat ", "
      (List.map
         (fun x ->
           Printf.sprintf "%s: {\"value\": %s, \"unit\": %s}"
             (json_string x.key)
             (json_number x.value) (json_string x.unit))
         metrics)
  ^ "}"

let print_metrics metrics =
  List.iter (fun x -> Printf.printf "  %-36s %18.6f %s\n" x.key x.value x.unit) metrics

(* -- isolated per-operation costs ----------------------------------------- *)

(* Operations run in rounds of [iso_batch] followed by a drain, so the
   calendar holds about as many pending events as a real run does; the
   cost is the median over 7 batches of [iso_rounds] rounds. *)
let iso_batch = 64
let iso_rounds = 2_000
let iso_n = iso_batch * iso_rounds

let per_op round =
  median
    (List.init 7 (fun _ ->
         let t0 = now_ns () in
         for _ = 1 to iso_rounds do
           round ()
         done;
         float_of_int (now_ns () - t0) /. float_of_int iso_n))

(* No-op Engine.schedule + dispatch. *)
let engine_ns_per_event () =
  let engine = Engine.create () in
  let noop () = () in
  per_op (fun () ->
      for i = 1 to iso_batch do
        ignore (Engine.schedule engine ~after:i noop)
      done;
      Engine.run engine)

(* Fabric.send to a no-op handler, plus the delivery event. *)
let fabric_ns_per_msg () =
  let engine = Engine.create () in
  let fabric = Fabric.create engine (Rng.create ~seed:1) in
  Fabric.register fabric (Addr.Host 0) (fun _ -> ());
  let msg = Message.Noop_assignment { port = 0 } in
  per_op (fun () ->
      for _ = 1 to iso_batch do
        Fabric.send fabric ~src:Addr.Switch ~dst:(Addr.Host 0) msg
      done;
      Engine.run engine)

(* What one timing bracket costs around a call that does nothing; it is
   taken off every bracketed call so self times exclude the probe. *)
let bracket_cost () =
  let f = Sys.opaque_identity (fun () -> ()) in
  let batch () =
    let ns = ref 0 and words = ref 0 in
    for _ = 1 to iso_n do
      let t0 = now_ns () in
      let w0 = minor_words () in
      f ();
      let w1 = minor_words () in
      let t1 = now_ns () in
      ns := !ns + (t1 - t0);
      words := !words + (w1 - w0)
    done;
    (float_of_int !ns /. float_of_int iso_n, float_of_int !words /. float_of_int iso_n)
  in
  let batches = List.init 7 (fun _ -> batch ()) in
  (median (List.map fst batches), median (List.map snd batches))

(* -- per-layer report ------------------------------------------------------ *)

type layers = {
  metrics : metric list;
  measured_ns : int;  (** raw wrapped time, probe cost included *)
  lane_ns : int;  (** wall x lanes over the traced reps *)
  violations : string list;
}

let layer_report ~lanes ~bracket:(bracket_ns, bracket_words) ~fabric_iso ~engine_iso
    ~overhead traced =
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 traced in
  let probe r = Option.get r.probe in
  let sumf f = float_of_int (sum f) in
  let wall = sum (fun r -> r.wall_ns) in
  let lane_ns = wall * lanes in
  let cpu = float_of_int lane_ns in
  let completed = sumf (fun r -> r.o.Runner.completed) in
  let per_task x = ratio x completed in
  let traversals = sumf (fun r -> r.traversals) in
  let sw_ns k = sum (fun r -> (probe r).sw_ns.(k)) in
  let sw_calls k = sum (fun r -> (probe r).sw_calls.(k)) in
  let self ~ns ~calls = Float.max 0.0 (float_of_int ns -. (float_of_int calls *. bracket_ns)) in
  let sw_total_ns = Array.fold_left ( + ) 0 (Array.init (Array.length kinds) sw_ns) in
  let sw_total_calls = Array.fold_left ( + ) 0 (Array.init (Array.length kinds) sw_calls) in
  let sw_self = self ~ns:sw_total_ns ~calls:sw_total_calls in
  let sw_words =
    Float.max 0.0
      (sumf (fun r -> (probe r).sw_words) -. (float_of_int sw_total_calls *. bracket_words))
  in
  let host_ns = sum (fun r -> (probe r).host_ns) in
  let host_calls = sum (fun r -> (probe r).host_calls) in
  let host_self = self ~ns:host_ns ~calls:host_calls in
  let host_words =
    Float.max 0.0
      (sumf (fun r -> (probe r).host_words) -. (float_of_int host_calls *. bracket_words))
  in
  let msgs = sumf (fun r -> r.msgs) in
  let events = sumf (fun r -> r.o.Runner.events) in
  let noops = sumf (fun r -> r.noops) in
  let assignments = sumf (fun r -> r.assignments) in
  let lps = match traced with [] -> 0 | r :: _ -> Array.length (probe r).lp_ns in
  let lp_ns i = sumf (fun r -> (probe r).lp_ns.(i)) in
  let thunk_ns = List.fold_left ( +. ) 0.0 (List.init lps lp_ns) in
  let windows = sumf (fun r -> r.windows) in
  let window_ns = sumf (fun r -> (probe r).window_ns) in
  let sharded = windows > 0.0 in
  let switch_lp = if sharded then ratio (lp_ns 0) thunk_ns else 0.0 in
  let barrier_wait =
    if sharded then Float.max 0.0 ((float_of_int lanes *. window_ns) -. thunk_ns) /. cpu
    else 0.0
  in
  let switch_frac = sw_self /. cpu in
  let host_frac = host_self /. cpu in
  let fabric_est = msgs *. fabric_iso /. cpu in
  (* every delivered message is also one engine event, already costed
     in the fabric estimate *)
  let engine_est = Float.max 0.0 (events -. msgs) *. engine_iso /. cpu in
  let per_kind =
    List.concat
      (List.init (Array.length kinds) (fun k ->
           let calls = sw_calls k in
           [
             m (Printf.sprintf "switch.%s.per_task" kinds.(k)) "1/task"
               (per_task (float_of_int calls));
             m (Printf.sprintf "switch.%s.ns_per_call" kinds.(k)) "ns"
               (ratio (self ~ns:(sw_ns k) ~calls) (float_of_int calls));
           ]))
  in
  let metrics =
    [
      m "switch.self_frac" "frac" switch_frac;
      m "switch.ns_per_traversal" "ns" (ratio sw_self traversals);
      m "switch.words_per_traversal" "words" (ratio sw_words traversals);
    ]
    @ per_kind
    @ [
        m "switch.noop_frac" "frac" (ratio noops (noops +. assignments));
        m "switch.repairs_per_task" "1/task" (per_task (sumf (fun r -> r.repairs)));
        m "host.executor.self_frac" "frac" host_frac;
        m "host.executor.ns_per_delivery" "ns" (ratio host_self (float_of_int host_calls));
        m "host.executor.words_per_delivery" "words" (ratio host_words (float_of_int host_calls));
        m "host.executor.deliveries_per_task" "1/task" (per_task (float_of_int host_calls));
        m "p4.traversals_per_task" "1/task" (per_task traversals);
        m "p4.recirc_frac" "frac" (ratio (sumf (fun r -> r.recirculated)) traversals);
        m "p4.recirc_drops" "count" (sumf (fun r -> r.o.Runner.recirc_drops));
        m "net.msgs_per_task" "1/task" (per_task msgs);
        m "net.lost" "count" (sumf (fun r -> r.lost));
        m "net.fabric_ns_per_msg_iso" "ns" fabric_iso;
        m "net.fabric_est_frac" "frac" fabric_est;
        m "sim.events_per_task" "1/task" (per_task events);
        m "sim.events_per_s" "1/s" (events /. (float_of_int wall /. 1e9));
        m "sim.engine_ns_per_event_iso" "ns" engine_iso;
        m "sim.engine_est_frac" "frac" engine_est;
        m "sim.residual_frac" "frac"
          (1.0 -. switch_frac -. host_frac -. fabric_est -. engine_est -. barrier_wait);
        m "sim.sync.windows" "count" (windows /. float_of_int (List.length traced));
        m "sim.sync.events_per_window" "count" (ratio events windows);
        m "sim.sync.lane_busy_frac" "frac" (if sharded then thunk_ns /. cpu else 0.0);
        m "sim.sync.barrier_wait_frac" "frac" barrier_wait;
        m "sim.sync.switch_lp_frac" "frac" switch_lp;
        m "sim.sync.amdahl_bound" "ratio"
          (if sharded then 1.0 /. (switch_lp +. ((1.0 -. switch_lp) /. float_of_int lanes))
           else 1.0);
        m "trace.overhead_frac" "frac" overhead;
      ]
  in
  let measured_ns = sw_total_ns + host_ns in
  let violations =
    List.filter_map
      (fun x ->
        if not (Float.is_finite x.value) then Some (Printf.sprintf "%s is %f" x.key x.value)
        else if
          x.unit = "frac"
          && x.key <> "trace.overhead_frac"
          && (x.value < 0.0 || x.value > 1.0)
        then Some (Printf.sprintf "%s = %f lies outside [0, 1]" x.key x.value)
        else None)
      metrics
    @ (if measured_ns > lane_ns then
         [ Printf.sprintf "measured self time %dns exceeds the traced wall time %dns"
             measured_ns lane_ns ]
       else [])
    @
    if thunk_ns > cpu then
      [ Printf.sprintf "LP thunk time %.0fns exceeds the traced lane time %dns" thunk_ns
          lane_ns ]
    else []
  in
  { metrics; measured_ns; lane_ns; violations }

(* -- driving a workload ---------------------------------------------------- *)

type options = {
  seed : int;
  seconds : int;
  trace : bool;
  quick : bool;
}

type result = {
  workload : workload;
  metrics : metric list;
  attempted : int;
  failed : int;
  violations : string list;
  trace_json : string option;
}

let nproc = Domain.recommended_domain_count ()

(* Reps repeat until [seconds] have elapsed, at least [min_reps] of
   them; [--quick] runs exactly one. *)
let repeat opts ~min_reps f =
  let start = now_ns () in
  let rec go acc n =
    let enough =
      if opts.quick then n >= 1
      else n >= min_reps && now_ns () - start >= opts.seconds * 1_000_000_000
    in
    if enough then List.rev acc else go (f () :: acc) (n + 1)
  in
  go [] 0

let consistency reps =
  match reps with
  | [] -> []
  | first :: rest ->
    let fp = fingerprint first in
    List.concat_map rep_violations reps
    @ List.filter_map
        (fun r ->
          let other = fingerprint r in
          if other = fp then None
          else Some (Printf.sprintf "fingerprint drift: %s vs %s" fp other))
        rest

let failed_tasks reps =
  List.fold_left (fun acc r -> acc + (r.o.Runner.submitted - r.o.Runner.completed)) 0 reps

let attempted reps = List.fold_left (fun acc r -> acc + r.o.Runner.submitted) 0 reps

let print_header w opts ~lanes ~horizon ~reps =
  Printf.printf "workload %s  seed %d  nproc %d  lanes %d  reps %d  horizon %.0fms  load %.0f tps\n"
    w.name opts.seed nproc lanes reps (Time.to_ms horizon) (rate_tps w)

let print_footer w reps violations =
  let first = List.hd reps in
  Printf.printf "  fingerprint %s\n" (fingerprint first);
  Printf.printf "  ops %d  failed %d\n" (attempted reps)
    (failed_tasks reps + List.length violations);
  List.iter (Printf.eprintf "%s: CHECK FAILED: %s\n%!" w.name) violations

(* Set-ups on their own, each from a compacted heap, so every sample
   starts from the same state; a rep's own set-up depends on what the
   previous rep left behind.  run.sh also pins the allocator's mmap
   threshold, for the same reason. *)
let setup_samples w =
  List.init 15 (fun _ ->
      Gc.compact ();
      let ns, _, running = time_setup w in
      running.Systems.control.Systems.close ();
      ns)

let end_to_end w opts ~lanes ~horizon =
  let setups = if opts.quick then [] else setup_samples w in
  let reps =
    repeat opts ~min_reps:5 (fun () ->
        run_rep w ~seed:opts.seed ~horizon ~lanes ~traced:false)
  in
  let setups = if opts.quick then List.map (fun r -> r.setup_ns) reps else setups in
  let violations = consistency reps in
  let first = List.hd reps in
  let med f = median (List.map f reps) in
  let metrics =
    [
      m "tasks_per_s" "1/s" (med tasks_per_s);
      m "alloc_words_per_task" "words"
        (med (fun r -> r.words /. float_of_int r.o.Runner.completed));
      (* after the first measured rep: the peak of set-up plus one run,
         not of however many reps the time allowed *)
      m "peak_heap_mb" "MB"
        (float_of_int (first.top_heap_words * (Sys.word_size / 8)) /. 1e6);
      m "setup_s" "s"
        (median (List.map (fun ns -> float_of_int ns /. 1e9) setups));
      m "sched_p50_us" "us" (float_of_int first.o.Runner.sched_p50 /. 1e3);
      m "sched_p99_us" "us" (float_of_int first.o.Runner.sched_p99 /. 1e3);
    ]
  in
  print_header w opts ~lanes ~horizon ~reps:(List.length reps);
  print_metrics metrics;
  Printf.printf "  setup_s over samples (ms): %s\n"
    (String.concat " " (List.map (fun ns -> Printf.sprintf "%.2f" (float_of_int ns /. 1e6)) setups));
  Printf.printf "  tasks_per_s over reps: %s\n"
    (String.concat " " (List.map (fun r -> Printf.sprintf "%.0f" (tasks_per_s r)) reps));
  Printf.printf "  sched delay samples %d  events/task %.1f  sync windows %d\n" first.samples
    (ratio (float_of_int first.o.Runner.events) (float_of_int first.o.Runner.completed))
    first.windows;
  print_footer w reps violations;
  {
    workload = w;
    metrics;
    attempted = attempted reps;
    failed = failed_tasks reps + List.length violations;
    violations;
    trace_json = None;
  }

let per_layer w opts ~lanes ~horizon =
  let bracket = bracket_cost () in
  let fabric_iso = fabric_ns_per_msg () in
  let engine_iso = engine_ns_per_event () in
  let pairs =
    repeat opts ~min_reps:2 (fun () ->
        let plain = run_rep w ~seed:opts.seed ~horizon ~lanes ~traced:false in
        let traced = run_rep w ~seed:opts.seed ~horizon ~lanes ~traced:true in
        (plain, traced))
  in
  let plain = List.map fst pairs and traced = List.map snd pairs in
  let reps = plain @ traced in
  let overhead =
    1.0 -. (median (List.map tasks_per_s traced) /. median (List.map tasks_per_s plain))
  in
  let report = layer_report ~lanes ~bracket ~fabric_iso ~engine_iso ~overhead traced in
  let violations = consistency reps @ report.violations in
  print_header w opts ~lanes ~horizon ~reps:(List.length reps);
  Printf.printf "  traced reps %d  probe bracket %.1fns %.1fwords  host layer %s\n"
    (List.length traced) (fst bracket) (snd bracket)
    (if w.shards = None then "wrapped" else "not reachable on the sharded path");
  print_metrics report.metrics;
  Printf.printf "  self-check: wrapped time %.3fs of %.3fs lane time\n"
    (float_of_int report.measured_ns /. 1e9)
    (float_of_int report.lane_ns /. 1e9);
  print_footer w reps violations;
  let trace_json =
    Printf.sprintf
      "{\"workload\": %s, \"seed\": %d, \"nproc\": %d, \"lanes\": %d, \"traced_reps\": %d, \
       \"host_wrapped\": %b, \"probe_bracket_ns\": %s, \"probe_bracket_words\": %s, \
       \"fingerprint\": %s, \"self_check\": {\"ok\": %b, \"wrapped_ns\": %d, \"lane_ns\": %d, \
       \"violations\": [%s]}, \"metrics\": %s}"
      (json_string w.name) opts.seed nproc lanes (List.length traced) (w.shards = None)
      (json_number (fst bracket)) (json_number (snd bracket))
      (json_string (fingerprint (List.hd reps)))
      (report.violations = []) report.measured_ns report.lane_ns
      (String.concat ", " (List.map json_string report.violations))
      (json_metrics report.metrics)
  in
  {
    workload = w;
    metrics = report.metrics;
    attempted = attempted reps;
    failed = failed_tasks reps + List.length violations;
    violations;
    trace_json = Some trace_json;
  }

let run_workload opts w =
  (* One lane unsharded; the sharded workload gets min(shards, nproc). *)
  let lanes = match w.shards with None -> 1 | Some s -> max 1 (min s nproc) in
  Pool.set_jobs lanes;
  (* An unmeasured short rep first, so code, heap and helper domains are
     warm before timing starts; its outcome is still checked. *)
  let warmup =
    if opts.quick then []
    else rep_violations (run_rep w ~seed:opts.seed ~horizon:quick_horizon ~lanes ~traced:false)
  in
  List.iter (Printf.eprintf "%s: CHECK FAILED (warm-up rep): %s\n%!" w.name) warmup;
  let horizon = if opts.quick then quick_horizon else w.horizon in
  let r =
    if opts.trace then per_layer w opts ~lanes ~horizon else end_to_end w opts ~lanes ~horizon
  in
  { r with failed = r.failed + List.length warmup; violations = warmup @ r.violations }

(* -- command line ---------------------------------------------------------- *)

let usage = "draconis_bench.exe [--workload NAME] [--seed N] [--seconds S] [--trace 0|1] [--trace-out FILE] [--quick]"

let () =
  let workload = ref None in
  let seed = ref Runner.(workload_seed ()) in
  let seconds = ref 10 in
  let trace = ref 0 in
  let trace_out = ref None in
  let quick = ref false in
  let names = String.concat " | " (List.map (fun w -> w.name) workloads) in
  Arg.parse
    [
      ("--workload", Arg.String (fun s -> workload := Some s), "NAME  " ^ names);
      ("--seed", Arg.Set_int seed, "N  workload seed (default 1000003)");
      ("--seconds", Arg.Set_int seconds, "S  measure for at least S seconds (default 10)");
      ("--trace", Arg.Set_int trace, "0|1  report per-layer instead of end-to-end metrics");
      ("--trace-out", Arg.String (fun f -> trace_out := Some f), "FILE  per-layer JSON report");
      ("--quick", Arg.Set quick, " tiny horizons, one rep");
    ]
    (fun arg -> raise (Arg.Bad ("unexpected argument " ^ arg)))
    usage;
  let fail msg =
    prerr_endline ("draconis_bench: " ^ msg);
    exit 2
  in
  if !trace <> 0 && !trace <> 1 then fail "--trace takes 0 or 1";
  if !seconds < 1 then fail "--seconds must be at least 1";
  let selected =
    match !workload with
    | None -> workloads
    | Some name -> (
      match List.find_opt (fun w -> w.name = name) workloads with
      | Some w -> [ w ]
      | None -> fail (Printf.sprintf "unknown workload %S (expected %s)" name names))
  in
  let opts = { seed = !seed; seconds = !seconds; trace = !trace = 1; quick = !quick } in
  let results = List.map (run_workload opts) selected in
  Option.iter
    (fun file ->
      let oc = open_out file in
      Printf.fprintf oc "{\"workloads\": [%s]}\n"
        (String.concat ", " (List.filter_map (fun r -> r.trace_json) results));
      close_out oc)
    !trace_out;
  let correct = List.for_all (fun r -> r.violations = []) results in
  let metrics =
    match results with
    | [ r ] -> r.metrics
    | _ ->
      (* several workloads: prefix each metric with its workload *)
      List.concat_map
        (fun r -> List.map (fun x -> { x with key = r.workload.name ^ "/" ^ x.key }) r.metrics)
        results
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": %s}\n"
    correct
    (List.fold_left (fun acc r -> acc + r.attempted) 0 results)
    (List.fold_left (fun acc r -> acc + r.failed) 0 results)
    (json_metrics metrics);
  if not correct then exit 1
