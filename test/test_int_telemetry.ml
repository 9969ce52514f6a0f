(* Tests for the in-band telemetry channel: configuration and the
   header budget's range check, stamp-stack budget/loss accounting, the stamp
   fields a traversal writes into its packet context, host-side
   collector aggregation and its JSON section, the ambient collector,
   the offline occupancy re-check, the sink drain tie-break, and an
   end-to-end run -> dump -> reload -> recheck round trip. *)

open Draconis_sim
open Draconis_net
open Draconis_p4
open Draconis_workload
module H = Draconis_harness
module Obs = Draconis_obs
module Int_t = Draconis_obs.Int_telemetry

(* Every test restores the process-global telemetry switches: the suite
   shares them with the observability and fuzz suites. *)
let with_clean_config f =
  let was_enabled = Int_t.enabled () in
  let was_budget = Int_t.budget () in
  Fun.protect
    ~finally:(fun () ->
      Int_t.set_budget was_budget;
      if was_enabled then Int_t.enable () else Int_t.disable ())
    f

(* -- configuration ---------------------------------------------------------- *)

let test_budget_validation () =
  with_clean_config (fun () ->
      Alcotest.check_raises "zero"
        (Invalid_argument "Int_telemetry.set_budget: header budget must be in 1..64, got 0")
        (fun () -> Int_t.set_budget 0);
      Alcotest.check_raises "over max"
        (Invalid_argument
           "Int_telemetry.set_budget: header budget must be in 1..64, got 65") (fun () ->
          Int_t.set_budget 65);
      Int_t.set_budget 8;
      Alcotest.(check int) "accepted" 8 (Int_t.budget ());
      Alcotest.(check int) "default" 4 Int_t.default_budget;
      Alcotest.(check int) "max" 64 Int_t.max_budget)

(* -- stamp stack ------------------------------------------------------------ *)

let commit_stamp ~stage ~level ~occupancy ~at stack =
  Int_t.commit_traversal ~at ~stage ~level ~occupancy ~bank:(-1) ~probe:Int_t.No_probe
    stack

let test_stack_budget_and_lost () =
  with_clean_config (fun () ->
      Int_t.enable ~budget:2 ();
      let s = Int_t.ingress_stack ~sent_at:0 in
      Alcotest.(check int) "ingress depth" 1 (Int_t.stack_depth s);
      Alcotest.(check int) "ingress lost" 0 (Int_t.stack_lost s);
      let s = commit_stamp ~stage:Int_t.Submission ~level:0 ~occupancy:3 ~at:(Time.us 10) s in
      Alcotest.(check int) "second stamp stored" 2 (Int_t.stack_depth s);
      (* Budget exhausted: further commits are counted, not stored. *)
      let s = commit_stamp ~stage:Int_t.Request ~level:0 ~occupancy:2 ~at:(Time.us 20) s in
      let s = commit_stamp ~stage:Int_t.Swap ~level:1 ~occupancy:1 ~at:(Time.us 30) s in
      Alcotest.(check int) "depth capped at budget" 2 (Int_t.stack_depth s);
      Alcotest.(check int) "overflow counted in lost" 2 (Int_t.stack_lost s);
      match Int_t.stack_stamps s with
      | [ first; second ] ->
        Alcotest.(check string) "oldest first" "ingress"
          (Int_t.stage_to_string first.Int_t.stage);
        Alcotest.(check string) "then submission" "submission"
          (Int_t.stage_to_string second.Int_t.stage);
        Alcotest.(check int) "occupancy carried" 3 second.Int_t.occupancy;
        Alcotest.(check int) "level carried" 0 second.Int_t.level
      | stamps -> Alcotest.failf "expected 2 stored stamps, got %d" (List.length stamps))

(* A packet that enters while a collector is installed carries a stack,
   and each traversal commits exactly the fields it wrote into the
   pipeline's context: [reset] clears them between traversals, so the
   second traversal starts from "not observed".  A packet that enters
   with no collector installed carries no stack, whatever the export
   flag says. *)
let test_context_telemetry () =
  with_clean_config (fun () ->
      Int_t.enable ();
      let engine = Engine.create () in
      let fabric =
        Fabric.create ~config:{ Fabric.default_config with jitter = 0 } engine
          (Rng.create ~seed:3)
      in
      let seen = ref [] in
      let program (ctx : Packet_ctx.t) n =
        let f = ctx.telemetry in
        seen := (f.level, f.occupancy, f.bank) :: !seen;
        if n > 0 then begin
          f.stage <- Int_t.Pifo_probe;
          f.level <- 2;
          f.occupancy <- 5;
          f.bank <- 3;
          f.probe <- Int_t.Probe_miss;
          [ Pipeline.Recirculate (n - 1) ]
        end
        else begin
          f.stage <- Int_t.Request;
          [ Pipeline.Emit (Addr.Host 1, n) ]
        end
      in
      let pipeline = Pipeline.attach fabric ~wrap:Fun.id program in
      let stacks = ref [] in
      Fabric.register fabric (Addr.Host 1) (fun env ->
          stacks := env.Fabric.int_ :: !stacks);
      let send () =
        Fabric.send fabric ~src:(Addr.Host 0) ~dst:Addr.Switch 1;
        Engine.run engine
      in
      send ();
      Alcotest.(check bool) "no collector, no stack" true (!stacks = [ None ]);
      Alcotest.(check bool) "every traversal starts cleared" true
        (List.for_all (fun fields -> fields = (-1, -1, -1)) !seen);
      let last = (Pipeline.context pipeline).Packet_ctx.telemetry in
      Alcotest.(check string) "context keeps the last traversal's stage" "request"
        (Int_t.stage_to_string last.stage);
      let c = Int_t.Collector.create () in
      Int_t.with_collector c send;
      Alcotest.(check int) "stack delivered to the installed collector" 1
        (Int_t.Collector.stacks c);
      match !stacks with
      | Some stack :: _ -> (
        match Int_t.stack_stamps stack with
        | [ ingress; probe; request ] ->
          Alcotest.(check string) "ingress" "ingress"
            (Int_t.stage_to_string ingress.stage);
          Alcotest.(check string) "probe stage" "pifo-probe"
            (Int_t.stage_to_string probe.stage);
          Alcotest.(check (list int)) "probe fields" [ 0; 2; 5; 3 ]
            [ probe.hop; probe.level; probe.occupancy; probe.bank ];
          Alcotest.(check bool) "probe outcome" true (probe.probe = Int_t.Probe_miss);
          Alcotest.(check (list int)) "request fields cleared" [ 1; -1; -1; -1 ]
            [ request.hop; request.level; request.occupancy; request.bank ];
          Alcotest.(check bool) "request outcome cleared" true
            (request.probe = Int_t.No_probe)
        | stamps -> Alcotest.failf "expected 3 stamps, got %d" (List.length stamps))
      | _ -> Alcotest.fail "packet entered under a collector but carried no stack")

(* -- host-side collector ---------------------------------------------------- *)

let delivered_stack () =
  let s = Int_t.ingress_stack ~sent_at:0 in
  let s = commit_stamp ~stage:Int_t.Submission ~level:0 ~occupancy:3 ~at:(Time.us 10) s in
  commit_stamp ~stage:Int_t.Request ~level:0 ~occupancy:2 ~at:(Time.us 150) s

let test_collector_accounting () =
  with_clean_config (fun () ->
      Int_t.enable ~budget:4 ();
      let c = Int_t.Collector.create ~window:(Time.us 100) () in
      Int_t.Collector.deliver c (delivered_stack ());
      Alcotest.(check int) "stacks" 1 (Int_t.Collector.stacks c);
      Alcotest.(check int) "stamps" 3 (Int_t.Collector.stamps c);
      Alcotest.(check int) "lost" 0 (Int_t.Collector.lost c);
      Alcotest.(check (option int)) "depth p99" (Some 3)
        (Int_t.Collector.depth_percentile c ~level:0 99.0);
      Alcotest.(check (option int)) "unseen level" None
        (Int_t.Collector.depth_percentile c ~level:5 99.0);
      Alcotest.(check (list (pair string int))) "chain"
        [ ("ingress>submission>request", 1) ]
        (Int_t.Collector.chains c);
      (* A stack that overflowed its budget carries its loss into the
         collector; a dropped stack is accounted separately. *)
      Int_t.set_budget 1;
      let s = Int_t.ingress_stack ~sent_at:0 in
      let s = commit_stamp ~stage:Int_t.Swap ~level:1 ~occupancy:1 ~at:(Time.us 20) s in
      Int_t.Collector.deliver c s;
      Alcotest.(check int) "overflow surfaces as lost" 1 (Int_t.Collector.lost c);
      Int_t.Collector.drop c (Int_t.ingress_stack ~sent_at:0);
      Alcotest.(check int) "dropped stack" 1 (Int_t.Collector.dropped_stacks c);
      Alcotest.(check int) "drop does not count stamps" 4 (Int_t.Collector.stamps c);
      (* The bucketed series steps at window boundaries: occupancy 3 at
         10us lands in bucket 0, occupancy 2 at 150us in bucket 1. *)
      let samples = ref [] in
      Int_t.Collector.emit_series c (fun ~at ~name v -> samples := (at, name, v) :: !samples);
      (match List.rev !samples with
      | (0, "int.depth.q0", 3) :: (at1, "int.depth.q0", 2) :: _ ->
        Alcotest.(check int) "second bucket start" (Time.us 100) at1
      | _ -> Alcotest.fail "unexpected depth series shape"))

let test_collector_rejects_bad_window () =
  Alcotest.check_raises "non-positive window"
    (Invalid_argument "Int_telemetry.Collector.create: window must be positive") (fun () ->
      ignore (Int_t.Collector.create ~window:0 ()))

let test_collector_json_section () =
  with_clean_config (fun () ->
      Int_t.enable ~budget:4 ();
      let c = Int_t.Collector.create ~window:(Time.us 100) () in
      Int_t.Collector.deliver c (delivered_stack ());
      let out = Int_t.Collector.to_json c in
      match Obs.Json.parse out with
      | Error msg -> Alcotest.failf "int section is not valid JSON: %s" msg
      | Ok json ->
        let num name =
          match Obs.Json.member name json with
          | Some n -> Option.get (Obs.Json.to_number n)
          | None -> Alcotest.failf "missing %S" name
        in
        Alcotest.(check (float 0.)) "stacks" 1.0 (num "stacks");
        Alcotest.(check (float 0.)) "stamps" 3.0 (num "stamps");
        Alcotest.(check (float 0.)) "budget" 4.0 (num "budget");
        (match Obs.Json.member "queues" json with
        | Some queues when Obs.Json.member "0" queues <> None -> ()
        | _ -> Alcotest.fail "queue 0 missing from section");
        (match Obs.Json.member "chains" json with
        | Some (Obs.Json.List (_ :: _)) -> ()
        | _ -> Alcotest.fail "chains missing from section"))

let test_ambient_collector () =
  with_clean_config (fun () ->
      Int_t.enable ();
      Alcotest.(check bool) "no ambient collector" true (Int_t.current_collector () = None);
      (* Must be a no-op, not a crash. *)
      Int_t.deliver_stack (Int_t.ingress_stack ~sent_at:0);
      Int_t.drop_stack (Int_t.ingress_stack ~sent_at:0);
      let c = Int_t.Collector.create () in
      Int_t.with_collector c (fun () ->
          Alcotest.(check bool) "installed" true (Int_t.current_collector () <> None);
          Int_t.deliver_stack (Int_t.ingress_stack ~sent_at:0));
      Alcotest.(check bool) "restored" true (Int_t.current_collector () = None);
      Alcotest.(check int) "ambient delivery counted" 1 (Int_t.Collector.stacks c))

(* -- offline occupancy re-check --------------------------------------------- *)

let consistent_section () =
  let open Obs.Int_report in
  {
    budget = 4;
    window_ns = Time.us 100;
    stacks = 2;
    dropped_stacks = 0;
    stamps = 4;
    lost = 0;
    stages =
      [ { sname = "ingress"; s_count = 2; s_p50 = 0; s_p99 = 0; s_max = 0 };
        { sname = "submission"; s_count = 2; s_p50 = 10; s_p99 = 12; s_max = 12 } ];
    queues =
      [ { qname = "q0"; samples = 3; qmax = 5; overall_p50 = 2; overall_p99 = 5;
          series =
            [ { b_at = 0; b_count = 2; b_p50 = 1; b_p99 = 2; b_max = 2 };
              { b_at = Time.us 100; b_count = 1; b_p50 = 5; b_p99 = 5; b_max = 5 } ] } ];
    banks = [];
    chains = [ ("ingress>submission", 2) ];
  }

let test_recheck_catches_inconsistency () =
  let open Obs.Int_report in
  Alcotest.(check (list string)) "consistent section passes" [] (recheck (consistent_section ()));
  (* Per-queue sample counts must re-derive from the bucketed series. *)
  let s = consistent_section () in
  let bad_samples =
    { s with queues = List.map (fun q -> { q with samples = q.samples + 1 }) s.queues }
  in
  Alcotest.(check bool) "sample drift detected" true (recheck bad_samples <> []);
  (* Per-stage stamp counts must sum to the section total. *)
  let bad_stamps = { s with stamps = s.stamps + 1 } in
  Alcotest.(check bool) "stage sum drift detected" true (recheck bad_stamps <> []);
  (* A bucket max above the queue max means the series and the totals
     disagree about what the switch observed. *)
  let bad_max = { s with queues = List.map (fun q -> { q with qmax = 1 }) s.queues } in
  Alcotest.(check bool) "max drift detected" true (recheck bad_max <> [])

(* -- sink drain tie-break --------------------------------------------------- *)

let test_sink_drain_tiebreak () =
  Obs.Sink.enable ();
  Fun.protect
    ~finally:(fun () -> Obs.Sink.disable ())
    (fun () ->
      (* Same label, same event count: only the first-event timestamp can
         order them.  Deposit late-starting first to prove drain does not
         fall back to deposit order. *)
      let late = Obs.Recorder.create ~label:"dup" () in
      Obs.Recorder.instant late ~at:(Time.us 50) ~track:"t" "e";
      Obs.Recorder.instant late ~at:(Time.us 60) ~track:"t" "e";
      let early = Obs.Recorder.create ~label:"dup" () in
      Obs.Recorder.instant early ~at:(Time.us 10) ~track:"t" "e";
      Obs.Recorder.instant early ~at:(Time.us 60) ~track:"t" "e";
      Obs.Sink.put late;
      Obs.Sink.put early;
      match Obs.Sink.drain () with
      | [ a; b ] ->
        Alcotest.(check int) "earliest first event first" (Time.us 10)
          (Obs.Recorder.first_event_at a);
        Alcotest.(check int) "latest first event second" (Time.us 50)
          (Obs.Recorder.first_event_at b)
      | runs -> Alcotest.failf "expected 2 recorders, got %d" (List.length runs))

(* -- end to end: run -> dump -> reload -> recheck ---------------------------- *)

let test_end_to_end_dump_roundtrip () =
  with_clean_config (fun () ->
      Int_t.enable ();
      Obs.Sink.enable ();
      Fun.protect
        ~finally:(fun () -> Obs.Sink.disable ())
        (fun () ->
          let spec =
            { H.Systems.workers = 4; executors_per_worker = 4; clients = 1; seed = 7 }
          in
          let system = H.Systems.draconis spec in
          let horizon = Time.ms 10 in
          let driver =
            H.Exp_common.synthetic_driver Synthetic.Fixed_100us ~rate_tps:40_000.0 ~horizon
          in
          ignore (H.Runner.run system ~driver ~load_tps:40_000.0 ~horizon ());
          let runs = Obs.Sink.drain () in
          let r = List.hd runs in
          (match Obs.Recorder.int_telemetry r with
          | None -> Alcotest.fail "run carries no INT section"
          | Some _ -> ());
          let path = Filename.temp_file "draconis_int" ".json" in
          Fun.protect
            ~finally:(fun () -> Sys.remove path)
            (fun () ->
              Obs.Dump.write_metrics ~path runs;
              match Obs.Int_report.load ~path with
              | Error msg -> Alcotest.failf "reload failed: %s" msg
              | Ok [ run ] -> (
                match run.Obs.Int_report.int_ with
                | None -> Alcotest.fail "reloaded run lost its INT section"
                | Some section ->
                  Alcotest.(check (list string)) "occupancy re-check passes" []
                    (Obs.Int_report.recheck section);
                  Alcotest.(check bool) "stacks observed" true
                    (section.Obs.Int_report.stacks > 0);
                  Alcotest.(check bool) "depth series observed" true
                    (List.exists
                       (fun q -> q.Obs.Int_report.series <> [])
                       section.Obs.Int_report.queues))
              | Ok runs -> Alcotest.failf "expected 1 run, got %d" (List.length runs))))

let suite =
  [
    Alcotest.test_case "budget validation" `Quick test_budget_validation;
    Alcotest.test_case "stack budget and lost" `Quick test_stack_budget_and_lost;
    Alcotest.test_case "stamp rides the packet context" `Quick test_context_telemetry;
    Alcotest.test_case "collector accounting" `Quick test_collector_accounting;
    Alcotest.test_case "collector rejects bad window" `Quick
      test_collector_rejects_bad_window;
    Alcotest.test_case "collector json section" `Quick test_collector_json_section;
    Alcotest.test_case "ambient collector" `Quick test_ambient_collector;
    Alcotest.test_case "recheck catches inconsistency" `Quick
      test_recheck_catches_inconsistency;
    Alcotest.test_case "sink drain tie-break" `Quick test_sink_drain_tiebreak;
    Alcotest.test_case "end-to-end dump round trip" `Quick test_end_to_end_dump_roundtrip;
  ]
