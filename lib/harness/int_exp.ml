(* INT experiment: correlate switch-side queue depth (from the in-band
   telemetry channel) with client-observed scheduling delay under a load
   sweep, and pin the disabled-path contract — a run with no collector
   installed stamps nothing, and must not differ from a stamped run by
   a single engine event. *)

open Draconis_stats
open Draconis_workload
module Obs = Draconis_obs
module Int_t = Obs.Int_telemetry

let kind = Synthetic.Fixed_500us

(* The INT export flag is process-global: with it on, an observed run
   (--metrics-out, --int-out) puts the installed collector's section on
   its recorder.  Restore it on the way out so the experiment never
   leaks its override into later experiments (or the --int-out export
   of the whole invocation). *)
let with_int_set on f =
  let was = Int_t.enabled () in
  let budget = Int_t.budget () in
  if on then Int_t.enable ~budget () else Int_t.disable ();
  Fun.protect
    ~finally:(fun () -> if was then Int_t.enable ~budget () else Int_t.disable ())
    f

let max_level = 16

(* Deepest queue level by p99 depth — the one driving tail latency.
   Level [-1] is the PIFO rank store (absent on the circular-queue
   deployment swept here, present if a policy override installs one). *)
let deepest_queue c =
  let best = ref None in
  for level = -1 to max_level - 1 do
    match Int_t.Collector.depth_percentile c ~level 99.0 with
    | None -> ()
    | Some p99 -> (
      match !best with
      | Some (_, _, b) when b >= p99 -> ()
      | _ ->
        let p50 =
          Option.value (Int_t.Collector.depth_percentile c ~level 50.0) ~default:0
        in
        best := Some (level, p50, p99))
  done;
  !best

let level_name level = if level < 0 then "pifo" else Printf.sprintf "q%d" level

type point = {
  outcome : Runner.outcome;
  deepest : (int * int * int) option;  (* level, depth p50, depth p99 *)
  stacks : int;
  stamps : int;
  lost : int;
  top_chain : string;
}

(* One seeded run of the swept deployment at [load]. *)
let run_once ~quick ~load () =
  let system = Systems.draconis Systems.default_spec in
  let horizon =
    Exp_common.horizon_for ~rate_tps:load
      ~target_tasks:(if quick then 4_000 else 20_000)
      ()
  in
  let driver = Exp_common.synthetic_driver kind ~rate_tps:load ~horizon in
  Runner.run system ~driver ~load_tps:load ~horizon ()

let run_point ~quick ~load =
  (* The collector is installed inside the (possibly pooled) closure:
     the ambient slot is domain-local, and the runner reuses a
     caller-installed collector rather than shadowing it. *)
  let c = Int_t.Collector.create () in
  let outcome = Int_t.with_collector c (run_once ~quick ~load) in
  let top_chain =
    match Int_t.Collector.chains c with
    | [] -> "-"
    | (chain, n) :: _ ->
      let chain =
        if String.length chain > 44 then String.sub chain 0 41 ^ "..." else chain
      in
      Printf.sprintf "%dx %s" n chain
  in
  {
    outcome;
    deepest = deepest_queue c;
    stacks = Int_t.Collector.stacks c;
    stamps = Int_t.Collector.stamps c;
    lost = Int_t.Collector.lost c;
    top_chain;
  }

(* The disabled-path contract, asserted in-run so @int-smoke pins it:
   stamps ride existing packets and cost no engine events, so a repeat
   of the same seeded run with no collector installed (and the export
   flag off, so an observed run installs none either) must execute the
   identical event count and reach the identical outcome.  With no
   collector at ingress no packet gets a stack, so that run stamps
   nothing. *)
let disabled_check ~quick ~load =
  let on_c = Int_t.Collector.create () in
  let on_o =
    with_int_set true (fun () -> Int_t.with_collector on_c (run_once ~quick ~load))
  in
  let off_o = with_int_set false (run_once ~quick ~load) in
  if Int_t.Collector.stamps on_c = 0 then
    failwith "int: enabled run produced no stamps — the channel is dead";
  if on_o.events <> off_o.events then
    failwith
      (Printf.sprintf
         "int: event count changed with telemetry on (%d) vs off (%d) — stamps must \
          ride existing packets"
         on_o.events off_o.events);
  if
    on_o.submitted <> off_o.submitted
    || on_o.completed <> off_o.completed
    || on_o.sched_p99 <> off_o.sched_p99
  then
    failwith
      (Printf.sprintf
         "int: outcome diverged with telemetry on/off (submitted %d/%d, completed \
          %d/%d, p99 %d/%d)"
         on_o.submitted off_o.submitted on_o.completed off_o.completed on_o.sched_p99
         off_o.sched_p99);
  Printf.printf
    "disabled-path check: %d events identical on/off, %d stamps on, 0 stamps off\n%!"
    on_o.events
    (Int_t.Collector.stamps on_c)

let run ?(quick = false) () =
  let spec = Systems.default_spec in
  let executors = spec.workers * spec.executors_per_worker in
  let utilizations =
    if quick then [ 0.3; 0.8 ] else [ 0.1; 0.3; 0.5; 0.7; 0.85; 0.94 ]
  in
  let loads = Exp_common.loads kind ~executors ~utilizations in
  let points =
    with_int_set true (fun () ->
        Pool.map (List.map (fun load () -> run_point ~quick ~load) loads))
  in
  let table =
    Table.create
      ~columns:
        [ "load (tps)"; "util"; "sched p50 (us)"; "sched p99 (us)"; "queue";
          "depth p50"; "depth p99"; "stacks"; "stamps"; "lost"; "top recirc chain" ]
  in
  List.iter2
    (fun util p ->
      let o = p.outcome in
      let queue, d50, d99 =
        match p.deepest with
        | Some (level, p50, p99) ->
          (level_name level, string_of_int p50, string_of_int p99)
        | None -> ("-", "-", "-")
      in
      Table.add_row table
        [
          Printf.sprintf "%.0fk" (o.load_tps /. 1e3);
          Printf.sprintf "%.0f%%" (100.0 *. util);
          Exp_common.us o.sched_p50;
          Exp_common.us o.sched_p99;
          queue; d50; d99;
          string_of_int p.stacks;
          string_of_int p.stamps;
          string_of_int p.lost;
          p.top_chain;
        ])
    utilizations points;
  Table.print ~title:"INT: switch queue depth vs client scheduling delay" table;
  Report.add_outcomes (List.map (fun p -> p.outcome) points);
  (* Stress point for the on/off contract: the top of the sweep. *)
  disabled_check ~quick ~load:(List.nth loads (List.length loads - 1))
