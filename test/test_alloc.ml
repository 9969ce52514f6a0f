(* Host allocation budget of the idle poll loop.  An idle executor
   re-requests every [noop_retry] and the switch answers with a no-op,
   so an idle cluster runs nothing but the Task_request /
   Noop_assignment round trip.  Its minor words per pipeline traversal
   are pinned here, on both cluster paths, so an allocation creeping
   back into the fabric, pipeline, switch program, executor or LP
   mailbox fails a test instead of only moving a benchmark number; so
   are its engine events per traversal and its pending population. *)

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

(* The counts are deterministic: 32.0 words per traversal on the legacy
   path and 38.5 on the LP path.  Each budget sits about 10% above its
   count, so a closure built on every traversal fails it. *)
let test_legacy_budget () =
  check_budget "legacy path" ~budget:35.0 (words_per_traversal None)

let test_lp_budget () =
  check_budget "LP path at shards = 1" ~budget:42.0 (words_per_traversal (Some 1))

(* Engine events per traversal and pending events per executor over 10
   ms of idle polling, after the same warm-up.  A poll runs four events
   (request hop, pipeline exit, reply hop, no-op retry), and an executor
   keeps at most two pending: the next event of its poll loop and its
   one watchdog expiry.  On the LP path the LP engines' counts are
   summed. *)
let idle_population config =
  let cluster = Cluster.create config in
  let engines =
    match Cluster.sync cluster with
    | None -> [| Cluster.engine cluster |]
    | Some sync -> Array.map Lp.engine (Sync.lps sync)
  in
  Cluster.start cluster;
  Cluster.run cluster ~until:(Time.ms 1);
  let pipeline = Cluster.pipeline cluster in
  let traversals0 = Pipeline.processed pipeline and events0 = Cluster.events cluster in
  let peak = ref 0 in
  for i = 1 to 100 do
    Cluster.run cluster ~until:(Time.ms 1 + (i * Time.us 100));
    peak := Int.max !peak (Array.fold_left (fun n e -> n + Engine.pending e) 0 engines)
  done;
  let traversals = Pipeline.processed pipeline - traversals0 in
  Alcotest.(check bool) "the cluster polled" true (traversals > 1_000);
  Alcotest.(check int) "nothing was assigned" 0
    (Switch_program.assignments (Cluster.program cluster));
  ( float_of_int (Cluster.events cluster - events0) /. float_of_int traversals,
    float_of_int !peak /. float_of_int (Cluster.total_executors cluster) )

let check_population name config () =
  let events, pending = idle_population config in
  if events > 4.1 then
    Alcotest.failf "%s: %.2f engine events per traversal, budget 4.1" name events;
  if pending > 2.0 then
    Alcotest.failf "%s: %.2f pending events per executor, budget 2" name pending

(* The calendar in place: with a standing population of ~3k
   self-re-arming 200 us timers pending (a synthetic one: idle-poll
   keeps one watchdog per executor, 160 in all, since each executor
   keeps one deadline), scheduling a preallocated thunk at the poll
   loop's near delays and stepping allocates nothing.
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

(* Every data-path register primitive, the rule's check included,
   allocates nothing.  Two contexts share the registers: [a]'s accesses
   mostly meet its own older stamps, and after each of [b]'s rounds
   they meet a foreign one, so both sides of the check run. *)
let test_register_primitives () =
  let regs = Array.init 9 (fun i -> Register.create ~name:(string_of_int i) ~size:4 ()) in
  let a = Packet_ctx.create () and b = Packet_ctx.create () in
  let acc = ref 0 in
  let round i =
    let ctx = if i land 3 = 0 then b else a in
    Packet_ctx.reset ctx;
    let k = i land 3 in
    acc := !acc + Register.read regs.(0) ctx k;
    Register.write regs.(1) ctx k i;
    acc := !acc + Register.read_modify_write regs.(2) ctx k succ;
    acc := !acc + Register.exchange regs.(3) ctx k i;
    acc := !acc + Register.read_and_increment regs.(4) ctx k;
    acc := !acc + Register.read_and_advance regs.(5) ctx k ~modulus:7;
    acc := !acc + Register.compare_and_swap regs.(6) ctx k ~expected:0 ~desired:i;
    acc := !acc + Register.read_and_increment_below regs.(7) ctx k ~limit:5;
    acc := !acc + Register.read_and_decrement_above regs.(8) ctx k ~floor:0
  in
  for i = 1 to 100 do
    round i
  done;
  let w0 = Gc.minor_words () in
  for i = 1 to 10_000 do
    round i
  done;
  let words = Gc.minor_words () -. w0 in
  Alcotest.(check bool) "cells were used" true (!acc > 0);
  Alcotest.(check (float 0.0)) "minor words over 10k rounds of 9 primitives" 0.0 words

let test_entry =
  Entry.make
    ~task:(Draconis_proto.Task.make ~uid:0 ~jid:0 ~tid:1 ~fn_id:1 ~fn_par:1000 ())
    ~client:(Draconis_net.Addr.Host 1) ()

(* [Circular_queue.enqueue] on a non-full queue allocates its entry
   image and the outcome, and nothing per repair flag or entry word:
   each flag is one compare-and-swap or read, and a loop writes the
   words (measured 15 words; 22 with an [Array.iteri] closure for the
   words, 31 with a closure per flag too). *)
let test_enqueue_budget () =
  let q = Circular_queue.create ~name:"q" ~capacity:4096 () in
  let ctx = Packet_ctx.create () in
  let n = 4_000 in
  let rejected = ref 0 in
  let w0 = Gc.minor_words () in
  for _ = 1 to n do
    Packet_ctx.reset ctx;
    match Circular_queue.enqueue q ctx test_entry with
    | Circular_queue.Enqueued _ -> ()
    | Circular_queue.Rejected _ -> incr rejected
  done;
  let per_call = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every enqueue landed" 0 !rejected;
  if per_call > 16.5 then
    Alcotest.failf "%.1f minor words per enqueue, budget 16.5" per_call

(* Register cells live in 1,024-cell pages that materialize on first
   write (DESIGN §9).  Major words come from [Gc.counters], which counts
   the current domain's direct major allocations as they happen. *)
let major_words () =
  let _, _, words = Gc.counters () in
  words

(* One page: 1,024 cells of 8 bytes, its header and the byte block's
   padding word. *)
let page_words = 1026.0

(* A 164k-entry queue provisions twelve 164k-cell arrays (about 2M
   words if allocated up front) but costs page tables and its stamps'
   blank page; 10k enqueue+dequeue rounds sweep 10k slots and
   materialize at most the pages those slots touch in each array. *)
let test_queue_pages () =
  let w0 = major_words () in
  let q = Circular_queue.create ~name:"q" ~capacity:164_000 () in
  let created = major_words () -. w0 in
  if created >= 65_536.0 then
    Alcotest.failf "creating a 164k-entry queue: %.0f major words, budget 64K" created;
  let ctx = Packet_ctx.create () in
  let n = 10_000 in
  let w1 = major_words () in
  for _ = 1 to n do
    Packet_ctx.reset ctx;
    (match Circular_queue.enqueue q ctx test_entry with
    | Circular_queue.Enqueued _ -> ()
    | Circular_queue.Rejected _ -> Alcotest.fail "enqueue rejected");
    Packet_ctx.reset ctx;
    match Circular_queue.dequeue q ctx with
    | Circular_queue.Dequeued _ -> ()
    | Circular_queue.Empty | Circular_queue.Repair_pending -> Alcotest.fail "dequeue missed"
  done;
  let words = major_words () -. w1 in
  let arrays = Entry.word_count + 1 in
  let budget = float_of_int (arrays * (((n + 1023) / 1024) + 1)) *. page_words in
  if words > budget then
    Alcotest.failf "%d rounds: %.0f major words, budget %.0f (%d arrays)" n words budget
      arrays

(* Only a completed write materializes a page: a write that raises (out
   of bounds, or a second access) and an RMW whose condition fails leave
   every page blank, and the first write then costs one page. *)
let test_failed_writes_materialize_nothing () =
  let r = Register.create ~name:"r" ~size:(3 * 1024) () in
  let ctx = Packet_ctx.create () in
  let fresh () =
    Packet_ctx.reset ctx;
    ctx
  in
  let w0 = major_words () in
  (match Register.write r (fresh ()) 3072 1 with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "out-of-bounds write");
  let ctx' = fresh () in
  ignore (Register.read r ctx' 1500);
  (match Register.write r ctx' 1500 1 with
  | exception Packet_ctx.Access_violation _ -> ()
  | () -> Alcotest.fail "second access");
  ignore (Register.compare_and_swap r (fresh ()) 10 ~expected:1 ~desired:2);
  ignore (Register.read_and_increment_below r (fresh ()) 1030 ~limit:0);
  ignore (Register.read_and_decrement_above r (fresh ()) 2100 ~floor:0);
  Alcotest.(check (float 0.0)) "major words of failed writes" 0.0 (major_words () -. w0);
  let w1 = major_words () in
  Register.write r (fresh ()) 2100 1;
  Alcotest.(check (float 0.0)) "major words of the first write" page_words
    (major_words () -. w1)

(* With no observer (every benchmark run and every unobserved figure
   run) the 14 notes that only an observer reads return before they
   build a milestone: 0 words, whether or not the task has a record. *)
let test_observer_notes_off () =
  let m = Metrics.create (Engine.create ()) in
  let task = Draconis_proto.Task.make ~uid:0 ~jid:0 ~tid:1 ~fn_id:1 ~fn_par:1000 () in
  let stranger = Draconis_proto.Task.make ~uid:0 ~jid:0 ~tid:2 ~fn_id:1 ~fn_par:1000 () in
  Metrics.note_submit m task.id;
  let tasks = [ task; stranger ] in
  let round () =
    Metrics.note_sent m tasks;
    Metrics.note_arrive m tasks;
    Metrics.note_resubmit m task.id;
    Metrics.note_exec_finish m task ~node:0 ~port:0;
    Metrics.note_dequeue m task.id ~level:0 ~rank:(-1);
    Metrics.note_reject m tasks;
    Metrics.note_swap m ~into:stranger.id ~out:task.id ~level:0;
    Metrics.note_spin m task.id;
    Metrics.note_swap_start m stranger.id;
    Metrics.note_repair_flag m Metrics.Add_flag ~level:0;
    Metrics.note_rank m task.id ~rank:3;
    Metrics.note_recirculate m ~kind:"swap";
    Metrics.note_pop_scan m;
    Metrics.note_noop m
  in
  round ();
  let w0 = Gc.minor_words () in
  for _ = 1 to 10_000 do
    round ()
  done;
  Alcotest.(check (float 0.0)) "minor words over 10k rounds of 14 notes" 0.0
    (Gc.minor_words () -. w0)

(* On one engine every note of a task's lifecycle runs its body inline:
   no note allocates a closure for it.  What is left is the record and
   table cell the first note creates, [find_opt]'s [Some], the decision
   meter's mark and the samplers' amortized growth (measured 29 words
   per task; 63 with a closure per note). *)
let test_lifecycle_notes () =
  let m = Metrics.create (Engine.create ()) in
  let n = 10_000 in
  let tasks =
    Array.init (2 * n) (fun tid ->
        Draconis_proto.Task.make ~uid:0 ~jid:0 ~tid ~fn_id:1 ~fn_par:1000 ())
  in
  let lifecycle (task : Draconis_proto.Task.t) =
    Metrics.note_submit m task.id;
    Metrics.note_enqueue m task.id ~level:0;
    Metrics.note_assign m task.id ~node:0 ~requested_at:0;
    Metrics.note_exec_start m task ~node:0 ~port:0;
    Metrics.note_complete m task.id ~resubmitted:false
  in
  for i = 0 to n - 1 do
    lifecycle tasks.(i)
  done;
  let w0 = Gc.minor_words () in
  for i = n to (2 * n) - 1 do
    lifecycle tasks.(i)
  done;
  let per_task = (Gc.minor_words () -. w0) /. float_of_int n in
  Alcotest.(check int) "every task completed" (2 * n) (Metrics.completed m);
  Alcotest.(check int) "no record outlives its task" 0 (Metrics.in_flight m);
  if per_task > 32.0 then
    Alcotest.failf "%.1f minor words per task lifecycle, budget 32" per_task

let suite =
  [
    Alcotest.test_case "idle poll: legacy words/traversal" `Quick test_legacy_budget;
    Alcotest.test_case "idle poll: LP words/traversal" `Quick test_lp_budget;
    Alcotest.test_case "idle poll: 2x4 legacy events+pending" `Quick
      (check_population "2x4 legacy path" (idle_config None));
    Alcotest.test_case "idle poll: 2x4 LP events+pending" `Quick
      (check_population "2x4 LP path" (idle_config (Some 1)));
    Alcotest.test_case "idle poll: 10x16 legacy events+pending" `Quick
      (check_population "10x16 legacy path" Cluster.default_config);
    Alcotest.test_case "idle poll: 10x16 LP events+pending" `Quick
      (check_population "10x16 LP path" { Cluster.default_config with shards = Some 1 });
    Alcotest.test_case "rng draws allocate only a float result" `Quick test_rng_draws;
    Alcotest.test_case "calendar: schedule+step in place, 3k pending" `Quick
      test_calendar_in_place;
    Alcotest.test_case "register primitives allocate nothing" `Quick
      test_register_primitives;
    Alcotest.test_case "queue enqueue words per call" `Quick test_enqueue_budget;
    Alcotest.test_case "queue registers: pages follow the slots swept" `Quick
      test_queue_pages;
    Alcotest.test_case "register: failed writes materialize no page" `Quick
      test_failed_writes_materialize_nothing;
    Alcotest.test_case "observer-only notes allocate nothing unobserved" `Quick
      test_observer_notes_off;
    Alcotest.test_case "lifecycle notes allocate no closure" `Quick test_lifecycle_notes;
  ]
