(* Tests of the lib/fuzz property-fuzzing subsystem: generator
   determinism, schedule serialization round-trips, the semantic
   oracle, clean campaigns over the real pipeline, and the harness's
   self-test — an intentionally re-introduced protocol bug must be
   caught, shrunk to a small reproducer, and the reproducer must
   replay to the same violation. *)

open Draconis_proto
module Fz = Draconis_fuzz

let id ~tid : Task.id = { uid = 1; jid = 1; tid }

let test_gen_deterministic () =
  List.iter
    (fun seed ->
      let a = Fz.Gen.schedule ~seed () in
      let b = Fz.Gen.schedule ~seed () in
      Alcotest.(check string) "same seed, same schedule"
        (Fz.Schedule.to_string a) (Fz.Schedule.to_string b))
    [ 1; 7; 42; 1_000_003 ];
  let a = Fz.Gen.schedule ~seed:1 () in
  let b = Fz.Gen.schedule ~seed:2 () in
  Alcotest.(check bool) "different seeds differ" false
    (Fz.Schedule.to_string a = Fz.Schedule.to_string b)

let test_schedule_round_trip () =
  List.iter
    (fun seed ->
      let s = Fz.Gen.schedule ~seed () in
      let text = Fz.Schedule.to_string s in
      let reparsed = Fz.Schedule.of_string text in
      Alcotest.(check string)
        (Printf.sprintf "seed %d round-trips" seed)
        text
        (Fz.Schedule.to_string reparsed))
    (List.init 25 (fun i -> i + 1))

let test_schedule_rejects_garbage () =
  List.iter
    (fun text ->
      match Fz.Schedule.of_string text with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted garbage %S" text)
    [
      "";
      "not-a-header\n";
      "draconis-fuzz/1\nseed=1 capacity=0 policy=fcfs clients=1 executors=1 \
       service=1000\n";
      "draconis-fuzz/1\nseed=1 capacity=4 policy=bogus clients=1 executors=1 \
       service=1000\n";
    ]

(* Pin the pifo additions to the schedule grammar: policy spellings,
   deadline/tenant props, and the geometry rules Validate enforces. *)
let test_pifo_schedule_grammar () =
  let text =
    "draconis-fuzz/1\n\
     seed=7 capacity=16 policy=wfq:10000:3+1 clients=1 executors=2 service=1000\n\
     submit at=0 client=0 uid=0 jid=0 count=1 tenant=1\n\
     submit at=5 client=0 uid=1 jid=0 count=2\n\
     request at=10 executor=0 prio=1\n"
  in
  let s = Fz.Schedule.of_string text in
  Alcotest.(check string) "wfq schedule round-trips" text (Fz.Schedule.to_string s);
  let edf =
    "draconis-fuzz/1\n\
     seed=7 capacity=8 policy=edf:50000 clients=1 executors=1 service=1000\n\
     submit at=0 client=0 uid=0 jid=0 count=1 deadline=4294967295\n"
  in
  Alcotest.(check string) "edf deadline round-trips" edf
    (Fz.Schedule.to_string (Fz.Schedule.of_string edf));
  List.iter
    (fun text ->
      match Fz.Schedule.of_string text with
      | exception Invalid_argument _ -> ()
      | _ -> Alcotest.failf "accepted invalid pifo schedule %S" text)
    [
      (* wrap_offset is meaningless without queue pointers *)
      "draconis-fuzz/1\n\
       seed=1 capacity=16 policy=edf:1000 clients=1 executors=1 service=1000 \
       wrap_offset=3\n";
      (* capacity must match the bank geometry *)
      "draconis-fuzz/1\n\
       seed=1 capacity=24 policy=aging:2:1000 clients=1 executors=1 service=1000\n";
      (* conflicting task properties *)
      "draconis-fuzz/1\n\
       seed=1 capacity=16 policy=edf:1000 clients=1 executors=1 service=1000\n\
       submit at=0 client=0 uid=0 jid=0 count=1 deadline=5 tenant=1\n";
      (* malformed weight list *)
      "draconis-fuzz/1\n\
       seed=1 capacity=16 policy=wfq:1000: clients=1 executors=1 service=1000\n";
    ]

let test_oracle_fifo () =
  let o = Fz.Oracle.create ~levels:2 ~capacity:2 () in
  Alcotest.(check bool) "push 1" true (Fz.Oracle.push o ~level:0 (id ~tid:1) = Fz.Oracle.Pushed);
  Alcotest.(check bool) "push 2" true (Fz.Oracle.push o ~level:0 (id ~tid:2) = Fz.Oracle.Pushed);
  Alcotest.(check bool) "overflow at capacity" true
    (Fz.Oracle.push o ~level:0 (id ~tid:3) = Fz.Oracle.Overflow);
  Alcotest.(check int) "other level empty" 0 (Fz.Oracle.size o ~level:1);
  Alcotest.(check bool) "mem finds queued id" true (Fz.Oracle.mem o (id ~tid:2));
  (match Fz.Oracle.pop o ~level:0 with
  | Some popped -> Alcotest.(check int) "FIFO head first" 1 popped.tid
  | None -> Alcotest.fail "pop on non-empty level");
  Alcotest.(check bool) "swap replaces in place" true
    (Fz.Oracle.swap o ~out_id:(id ~tid:2) ~in_id:(id ~tid:9) = Fz.Oracle.Swapped);
  Alcotest.(check bool) "swap misses absent id" true
    (Fz.Oracle.swap o ~out_id:(id ~tid:2) ~in_id:(id ~tid:9) = Fz.Oracle.Not_found);
  Alcotest.(check bool) "remove finds swapped-in id" true (Fz.Oracle.remove o (id ~tid:9));
  Alcotest.(check int) "empty after remove" 0 (Fz.Oracle.total o)

let test_clean_campaign_exercises_all_invariants () =
  (* The real pipeline over a seed sweep — with the sharded smoke legs
     on, so the cross-LP outcome-equality invariant is exercised too:
     zero violations, and every registered invariant actually evaluated
     at least once.  The sweep reaches the duplicate submissions whose
     copies queue at two ranks (the first at seed 800), which a
     pifo-order check that judged a release by the first queued copy
     flagged wrongly. *)
  let seeds = List.init 5_000 (fun i -> i + 1) in
  let campaign = Fz.Fuzz.run_campaign ~sharded:true ~seeds () in
  (match campaign.Fz.Fuzz.failures with
  | [] -> ()
  | f :: _ ->
    Alcotest.failf "seed %d violated %s: %s" f.Fz.Fuzz.seed f.Fz.Fuzz.invariant
      f.Fz.Fuzz.detail);
  Alcotest.(check (list string)) "all invariants exercised" []
    (Fz.Fuzz.unexercised campaign);
  List.iter
    (fun inv ->
      let n = List.assoc inv campaign.Fz.Fuzz.checks in
      Alcotest.(check bool) (inv ^ " evaluated") true (n > 0))
    Fz.Checker.invariants

(* pifo-order judges a release by the copy it names.  One id queued
   twice, at ranks 5 and 9, before a scan: releasing rank 5 first is
   in order, releasing rank 9 first passes the rank-5 copy, and a
   release at a rank no copy holds is a violation too. *)
let test_pifo_order_judges_released_copy () =
  let schedule =
    Fz.Schedule.of_string
      "draconis-fuzz/1\n\
       seed=1 capacity=16 policy=edf:50000 clients=1 executors=1 service=1000\n"
  in
  let dup = id ~tid:1 in
  let fired rank =
    let switch milestone = Fz.Checker.Switch { milestone; int_occ = None } in
    let events =
      [|
        Fz.Checker.Submitted { id = dup };
        Fz.Checker.Submitted { id = dup };
        switch (Ranked { id = dup; rank = 5 });
        switch (Enqueued { id = dup; level = 0 });
        switch (Ranked { id = dup; rank = 9 });
        switch (Enqueued { id = dup; level = 0 });
        switch Pop_scan_started;
        switch (Dequeued { id = dup; level = 0; rank });
      |]
    in
    let run =
      {
        Fz.Checker.events;
        levels = [||];
        fabric_lost = 0;
        recirc_dropped = 0;
        access_violation = None;
        fingerprint = 0L;
        out_of_budget = None;
      }
    in
    let report = Fz.Checker.check schedule run in
    Alcotest.(check int)
      (Printf.sprintf "release at rank %d evaluated" rank)
      1
      (List.assoc "pifo-order" report.Fz.Checker.checks);
    List.mem_assoc "pifo-order" report.Fz.Checker.fired
  in
  Alcotest.(check bool) "lower-rank copy first is in order" false (fired 5);
  Alcotest.(check bool) "higher-rank copy first trips pifo-order" true (fired 9);
  Alcotest.(check bool) "a rank no copy holds trips pifo-order" true (fired 7)

(* A dequeue frees its slot's stamp, so a drained queue holds a stamp
   only on the tasks its walk finds.  A stamp left on a dequeued slot
   (the dequeue read the stamp instead of exchanging it) is what a swap
   could claim a second time; the switch program's staleness guard keeps
   every swap off such slots, so only the drained state shows it. *)
let test_drained_stamps () =
  let schedule =
    Fz.Schedule.of_string
      "draconis-fuzz/1\n\
       seed=1 capacity=4 policy=fcfs clients=1 executors=1 service=1000\n"
  in
  let fired stamped =
    let level =
      {
        Fz.Checker.add_ptr = 3;
        retrieve_ptr = 3;
        add_flag = false;
        retrieve_flag = false;
        pointer_occupancy = 0;
        walk = [];
        stamped;
      }
    in
    let run =
      {
        Fz.Checker.events = [||];
        levels = [| level |];
        fabric_lost = 0;
        recirc_dropped = 0;
        access_violation = None;
        fingerprint = 0L;
        out_of_budget = None;
      }
    in
    List.mem_assoc "pointer-convergence" (Fz.Checker.check schedule run).Fz.Checker.fired
  in
  Alcotest.(check bool) "no stamp outside the walk" false (fired 0);
  Alcotest.(check bool) "a stamp left on a dequeued slot" true (fired 1)

let test_sharded_rig_consistency () =
  (* The sharded execution path directly: the same schedule through one
     LP and through a switch-LP/host-LP split must agree on everything
     partition-independent, and the rig must not be vacuous — across
     the seeds, tasks actually reach executors. *)
  let delivered = ref 0 in
  List.iter
    (fun seed ->
      let schedule = Fz.Gen.schedule ~seed () in
      let one = Fz.Exec.run_sharded ~shards:1 schedule in
      let two = Fz.Exec.run_sharded ~shards:2 schedule in
      Alcotest.(check bool)
        (Printf.sprintf "seed %d: sharded run recorded events" seed)
        true
        (Array.length one.Fz.Checker.events > 0);
      Array.iter
        (function Fz.Checker.Delivered _ -> incr delivered | _ -> ())
        two.Fz.Checker.events;
      let report =
        Fz.Checker.check ~sharded:(one, two) schedule (Fz.Exec.run schedule)
      in
      match report.Fz.Checker.violations with
      | [] -> ()
      | v :: _ ->
        Alcotest.failf "seed %d violated %s: %s" seed v.Fz.Checker.invariant
          v.Fz.Checker.detail)
    [ 3; 11; 42 ];
  Alcotest.(check bool) "sharded legs delivered tasks" true (!delivered > 0);
  (* Only the two supported partitionings exist: LP0 = switch is fixed. *)
  Alcotest.(check bool) "shards=3 fails loud" true
    (try
       ignore (Fz.Exec.run_sharded ~shards:3 (Fz.Gen.schedule ~seed:1 ()));
       false
     with Invalid_argument _ -> true)

let test_injected_bug_caught_and_shrunk () =
  (* Harness self-test: re-introduce the stamp-validity bug, catch it,
     and shrink the failing schedule to a <= 20 op reproducer that
     still replays to the same violation. *)
  let campaign =
    Fz.Fuzz.run_campaign ~bug:Fz.Exec.Skip_stamp_check ~ops:10 ~shrink_budget:60
      ~seeds:[ 1 ] ()
  in
  match campaign.Fz.Fuzz.failures with
  | [] -> Alcotest.fail "injected stamp bug escaped the campaign"
  | f :: _ ->
    let op_count = List.length f.Fz.Fuzz.shrunk.Fz.Schedule.ops in
    Alcotest.(check bool)
      (Printf.sprintf "shrunk to %d ops (<= 20)" op_count)
      true (op_count <= 20);
    let replay = Fz.Exec.run_checked ~bug:Fz.Exec.Skip_stamp_check f.Fz.Fuzz.shrunk in
    let invariants =
      List.map (fun v -> v.Fz.Checker.invariant) replay.Fz.Checker.violations
    in
    Alcotest.(check bool)
      (Printf.sprintf "reproducer replays %s" f.Fz.Fuzz.invariant)
      true
      (List.mem f.Fz.Fuzz.invariant invariants)

let test_dropped_repair_caught () =
  let campaign =
    Fz.Fuzz.run_campaign ~bug:Fz.Exec.Drop_retrieve_repair ~shrink_budget:60
      ~seeds:[ 1 ] ()
  in
  match campaign.Fz.Fuzz.failures with
  | [] -> Alcotest.fail "injected dropped-repair bug escaped the campaign"
  | f :: _ ->
    Alcotest.(check bool) "shrunk reproducer is small" true
      (List.length f.Fz.Fuzz.shrunk.Fz.Schedule.ops <= 20);
    let replay =
      Fz.Exec.run_checked ~bug:Fz.Exec.Drop_retrieve_repair f.Fz.Fuzz.shrunk
    in
    Alcotest.(check bool) "reproducer still fails" false
      (Fz.Checker.ok replay)

let suite =
  [
    Alcotest.test_case "generator is seed-deterministic" `Quick test_gen_deterministic;
    Alcotest.test_case "schedule text round-trips" `Quick test_schedule_round_trip;
    Alcotest.test_case "schedule parser rejects garbage" `Quick
      test_schedule_rejects_garbage;
    Alcotest.test_case "pifo schedule grammar" `Quick test_pifo_schedule_grammar;
    Alcotest.test_case "oracle FIFO / overflow / swap / remove" `Quick test_oracle_fifo;
    Alcotest.test_case "clean campaign exercises every invariant" `Quick
      test_clean_campaign_exercises_all_invariants;
    Alcotest.test_case "pifo-order judges the released copy" `Quick
      test_pifo_order_judges_released_copy;
    Alcotest.test_case "drained stamps outside the walk are caught" `Quick
      test_drained_stamps;
    Alcotest.test_case "sharded execution matches across LP partitionings" `Quick
      test_sharded_rig_consistency;
    Alcotest.test_case "injected stamp bug caught and shrunk" `Quick
      test_injected_bug_caught_and_shrunk;
    Alcotest.test_case "injected dropped-repair bug caught" `Quick
      test_dropped_repair_caught;
  ]
