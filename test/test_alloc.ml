(* Host allocation budget of the idle poll loop.  An idle executor
   re-requests every [noop_retry] and the switch answers with a no-op,
   so an idle cluster runs nothing but the Task_request /
   Noop_assignment round trip.  Its minor words per pipeline traversal
   are pinned here, on both cluster paths, so an allocation creeping
   back into the fabric, pipeline, switch program, executor or LP
   mailbox fails a test instead of only moving a benchmark number. *)

open Draconis_sim
open Draconis_p4
open Draconis

let idle_config shards =
  {
    Cluster.default_config with
    workers = 2;
    executors_per_worker = 4;
    clients = 1;
    queue_capacity = 1024;
    shards;
  }

(* Minor words per traversal over 10 ms of idle polling, after a 1 ms
   warm-up that gets every executor into its steady no-op loop. *)
let words_per_traversal shards =
  let cluster = Cluster.create (idle_config shards) in
  Cluster.start cluster;
  Cluster.run cluster ~until:(Time.ms 1);
  let pipeline = Cluster.pipeline cluster in
  let traversals0 = Pipeline.processed pipeline in
  let words0 = Gc.minor_words () in
  Cluster.run cluster ~until:(Time.ms 11);
  let words = Gc.minor_words () -. words0 in
  let traversals = Pipeline.processed pipeline - traversals0 in
  Alcotest.(check bool) "the cluster polled" true (traversals > 1_000);
  Alcotest.(check int) "nothing was assigned" 0
    (Switch_program.assignments (Cluster.program cluster));
  words /. float_of_int traversals

let check_budget name ~budget per_traversal =
  if per_traversal > budget then
    Alcotest.failf "%s: %.1f minor words per traversal, budget %.0f" name per_traversal
      budget

let test_legacy_budget () =
  check_budget "legacy path" ~budget:60.0 (words_per_traversal None)

let test_lp_budget () =
  check_budget "LP path at shards = 1" ~budget:80.0 (words_per_traversal (Some 1))

(* The calendar in place: with idle-poll's standing population of ~3k
   self-re-arming 200 us watchdogs pending, scheduling a preallocated
   thunk at the poll loop's near delays and stepping allocates nothing.
   Every 8th round also arms one more watchdog, so the population grows
   past 4096 and the node pool grows once inside the measured loop; the
   grown arrays are too large for the minor heap. *)
let test_calendar_in_place () =
  let e = Engine.create () in
  let rec watchdog () = ignore (Engine.schedule e ~after:(Time.us 200) watchdog) in
  for i = 0 to 2_999 do
    ignore (Engine.schedule e ~after:(Time.us 200 + (i * 67)) watchdog)
  done;
  let hops = ref 0 in
  let hop () = incr hops in
  let near = [| 400; 1_350; 1_650; 4_000 |] in
  let round i =
    ignore (Engine.schedule e ~after:near.(i land 3) hop);
    if i land 7 = 0 then watchdog ();
    ignore (Engine.step e)
  in
  for i = 1 to 1_000 do
    round i
  done;
  let pending0 = Engine.pending e in
  let w0 = Gc.minor_words () in
  for i = 1 to 30_000 do
    round i
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "the population crossed a pool growth" true
    (pending0 < 4096 && Engine.pending e > 4096);
  Alcotest.(check bool) "events ran" true (!hops > 20_000);
  Alcotest.(check (float 0.0)) "minor words over 30k schedule+step rounds" 0.0 words

(* A draw that returns an immediate allocates nothing; [float] pays only
   for boxing its result, which a non-inlined float return always does. *)
let test_rng_draws () =
  let rng = Rng.create ~seed:11 in
  let n = 10_000 in
  let acc = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    acc := !acc + Rng.int rng 1000
  done;
  let w1 = Gc.minor_words () in
  for _ = 1 to n do
    if Rng.bool rng then incr acc
  done;
  let w2 = Gc.minor_words () in
  let hits = ref 0 in
  for _ = 1 to n do
    if Rng.float rng < 0.5 then incr hits
  done;
  let w3 = Gc.minor_words () in
  Alcotest.(check bool) "draws are used" true (!acc > 0 && !hits > 0);
  Alcotest.(check (float 0.0)) "Rng.int words" 0.0 (w1 -. w0);
  Alcotest.(check (float 0.0)) "Rng.bool words" 0.0 (w2 -. w1);
  Alcotest.(check bool) "Rng.float allocates at most its result box" true
    (w3 -. w2 <= float_of_int (2 * n))

let suite =
  [
    Alcotest.test_case "idle poll: legacy words/traversal" `Quick test_legacy_budget;
    Alcotest.test_case "idle poll: LP words/traversal" `Quick test_lp_budget;
    Alcotest.test_case "rng draws allocate only a float result" `Quick test_rng_draws;
    Alcotest.test_case "calendar: schedule+step in place, 3k pending" `Quick
      test_calendar_in_place;
  ]
