(* Unit and property tests for the two priority structures behind the
   engine's event queue: the monomorphic binary heap (the calendar's side
   tier, and the reference order it is checked against) and the
   engine's own timing-wheel calendar, driven through [Engine]. *)

open Draconis_sim

(* -- Int_heap ---------------------------------------------------------------- *)

let test_empty () =
  let heap = Int_heap.create () in
  Alcotest.(check int) "length" 0 (Int_heap.length heap);
  Alcotest.(check bool) "is_empty" true (Int_heap.is_empty heap);
  Alcotest.check_raises "pop raises" Not_found (fun () -> ignore (Int_heap.pop heap));
  Alcotest.check_raises "peek raises" Not_found (fun () ->
      ignore (Int_heap.peek heap))

let test_ordering () =
  let heap = Int_heap.create () in
  List.iter (fun k -> Int_heap.push heap k (10 * k)) [ 5; 1; 4; 8; 3; 9; 2 ];
  Alcotest.(check int) "length" 7 (Int_heap.length heap);
  Alcotest.(check int) "peek min key" 1 (Int_heap.peek_key heap);
  let keys = ref [] in
  Int_heap.drain heap (fun k _ -> keys := k :: !keys);
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 4; 5; 8; 9 ] (List.rev !keys);
  Alcotest.(check bool) "empty after drain" true (Int_heap.is_empty heap)

let test_clear () =
  let heap = Int_heap.create () in
  for i = 0 to 9 do
    Int_heap.push heap i i
  done;
  Int_heap.clear heap;
  Alcotest.(check int) "cleared" 0 (Int_heap.length heap)

let test_interleaved () =
  let heap = Int_heap.create () in
  Int_heap.push heap 3 30;
  Int_heap.push heap 1 10;
  Alcotest.(check (pair int int)) "pop 1" (1, 10) (Int_heap.pop heap);
  Int_heap.push heap 2 20;
  Int_heap.push heap 0 0;
  Alcotest.(check (pair int int)) "pop 0" (0, 0) (Int_heap.pop heap);
  Alcotest.(check (pair int int)) "pop 2" (2, 20) (Int_heap.pop heap);
  Alcotest.(check (pair int int)) "pop 3" (3, 30) (Int_heap.pop heap)

let test_capacity_hint () =
  (* A tiny capacity hint must still grow transparently... *)
  let heap = Int_heap.create ~capacity:1 () in
  for i = 1000 downto 1 do
    Int_heap.push heap i i
  done;
  Alcotest.(check int) "length after growth" 1000 (Int_heap.length heap);
  Alcotest.(check (pair int int)) "min after growth" (1, 1) (Int_heap.peek heap);
  (* ...and a large one must be accepted up front. *)
  let big = Int_heap.create ~capacity:4096 () in
  Int_heap.push big 1 1;
  Alcotest.(check (pair int int)) "big capacity works" (1, 1) (Int_heap.peek big)

let prop_int_heap_sorts =
  QCheck.Test.make ~name:"int_heap pops any int list in sorted order" ~count:200
    QCheck.(list int)
    (fun keys ->
      let heap = Int_heap.create () in
      List.iter (fun k -> Int_heap.push heap k 0) keys;
      let out = ref [] in
      Int_heap.drain heap (fun k _ -> out := k :: !out);
      List.rev !out = List.sort compare keys)

(* -- Engine calendar (timing wheel) ------------------------------------------- *)

(* Schedules one event per time in [times] (absolute, from a fresh
   engine) and returns the [(time, index)] log in firing order.  Each
   event checks that it fires at its own time, so a node that lost its
   key shows up as a wrong clock. *)
let fire_log times =
  let e = Engine.create () in
  let log = ref [] in
  List.iteri
    (fun i at ->
      ignore
        (Engine.schedule_at e ~at (fun () ->
             Alcotest.(check int) "fires at its own time" at (Engine.now e);
             log := (at, i) :: !log)))
    times;
  Engine.run e;
  Alcotest.(check int) "nothing left" 0 (Engine.pending e);
  List.rev !log

(* Level [l]'s window edge, [2^(slot_bits * l)], for every level and the
   span itself. *)
let level_edges = List.init (Engine.levels + 1) (fun l -> 1 lsl (Engine.slot_bits * l))

let test_wheel_empty () =
  let e = Engine.create () in
  Alcotest.(check int) "pending" 0 (Engine.pending e);
  Alcotest.(check (option int)) "next_at" None (Engine.next_at e);
  Alcotest.(check bool) "step on empty" false (Engine.step e);
  Engine.run e;
  Alcotest.(check int) "clock stays" 0 (Engine.now e);
  Engine.run ~until:10 e;
  Alcotest.(check int) "an empty horizon still advances the clock" 10 (Engine.now e)

let test_wheel_ordering () =
  let e = Engine.create () in
  let out = ref [] in
  List.iter
    (fun k -> ignore (Engine.schedule e ~after:k (fun () -> out := k :: !out)))
    [ 5; 1; 4; 8; 3; 9; 2 ];
  Alcotest.(check int) "pending" 7 (Engine.pending e);
  Alcotest.(check (option int)) "next_at" (Some 1) (Engine.next_at e);
  Engine.run e;
  Alcotest.(check (list int)) "sorted firing" [ 1; 2; 3; 4; 5; 8; 9 ] (List.rev !out);
  Alcotest.(check int) "empty after run" 0 (Engine.pending e)

let test_wheel_cascade () =
  (* Times spanning every level, and each level's edge +/- 1, scheduled
     in ascending order so the cursor anchors at the first and the rest
     land on the levels; they cascade as the cursor sweeps forward. *)
  let edges = List.concat_map (fun w -> [ w - 1; w; w + 1 ]) level_edges in
  let times =
    List.sort_uniq compare ([ 3; 40; 1_100; 33_000; 1_050_000; 20_000_000 ] @ edges)
  in
  Alcotest.(check (list int)) "cross-level order" times (List.map fst (fire_log times))

let test_wheel_overflow_tier () =
  (* Near event first: an empty wheel snaps its cursor to the first
     schedule, so scheduling the far one first would just anchor the
     window around it. *)
  let far = Engine.span + 5 in
  Alcotest.(check (list (pair int int)))
    "near first, far still fires"
    [ (5, 0); (far, 1) ]
    (fire_log [ 5; far ]);
  let e = Engine.create () in
  ignore (Engine.schedule e ~after:5 ignore);
  ignore (Engine.schedule e ~after:far ignore);
  Alcotest.(check int) "far event parked in the side tier" 1 (Engine.parked e);
  ignore (Engine.schedule e ~after:(Engine.span - 1) ignore);
  Alcotest.(check int) "span - 1 stays in the wheel" 1 (Engine.parked e)

let test_wheel_overdue_tier () =
  let e = Engine.create () in
  let out = ref [] in
  let at k = ignore (Engine.schedule_at e ~at:k (fun () -> out := k :: !out)) in
  at 100;
  at 300;
  Engine.run ~until:200 e;
  Alcotest.(check int) "clock at the horizon" 200 (Engine.now e);
  (* Peeking moves the cursor to the next event, past the clock; an
     event scheduled between the two lands behind the cursor but must
     still fire first. *)
  Alcotest.(check (option int)) "next_at" (Some 300) (Engine.next_at e);
  at 250;
  Alcotest.(check int) "behind-cursor event parked" 1 (Engine.parked e);
  Engine.run e;
  Alcotest.(check (list int)) "overdue fires first" [ 100; 250; 300 ] (List.rev !out)

let test_wheel_fifo_within_tick () =
  (* Same instant, distinct schedules: firing order is scheduling order. *)
  Alcotest.(check (list (pair int int)))
    "insertion order"
    [ (7, 0); (7, 1); (7, 2); (7, 3) ]
    (fire_log [ 7; 7; 7; 7 ])

let test_wheel_clear () =
  (* Cancelling every entry empties the calendar for good, whichever
     tier holds it, and leaves it usable. *)
  let e = Engine.create () in
  let fired = ref 0 in
  let hs =
    List.map
      (fun k -> Engine.schedule e ~after:k (fun () -> incr fired))
      [ 1; 2; Engine.span + 1 ]
  in
  List.iter (Engine.cancel e) hs;
  Engine.run e;
  Alcotest.(check int) "nothing fired" 0 !fired;
  Alcotest.(check int) "cleared" 0 (Engine.pending e);
  ignore (Engine.schedule e ~after:9 (fun () -> incr fired));
  Engine.run e;
  Alcotest.(check int) "usable after clearing" 1 !fired

let prop_wheel_sorts =
  QCheck.Test.make ~name:"wheel pops any key list in sorted order" ~count:200
    QCheck.(list (int_range 0 (2 * Engine.span)))
    (fun times ->
      let expected =
        List.stable_sort (fun (a, _) (b, _) -> compare a b) (List.mapi (fun i k -> (k, i)) times)
      in
      fire_log times = expected)

let prop_wheel_matches_int_heap =
  (* Interleaved schedules and steps against the reference heap on the
     same packed (time, sequence) keys, including delays past the span
     (the side tier).  Keys are unique, so the fired event ids must
     match exactly. *)
  QCheck.Test.make ~name:"wheel and int_heap agree under interleaved push/pop"
    ~count:200
    QCheck.(list (int_range 0 (2 * Engine.span)))
    (fun delays ->
      let e = Engine.create () in
      let h = Int_heap.create () in
      let fired = ref (-1) in
      let ok = ref true in
      let step () =
        let _, id = Int_heap.pop h in
        ok := !ok && Engine.step e && !fired = id
      in
      List.iteri
        (fun i d ->
          ignore (Engine.schedule e ~after:d (fun () -> fired := i));
          Int_heap.push h (((Engine.now e + d) lsl 20) lor i) i;
          if i mod 3 = 0 then step ())
        delays;
      while not (Int_heap.is_empty h) do
        step ()
      done;
      !ok && Engine.pending e = 0)

let suite =
  [
    Alcotest.test_case "int_heap empty" `Quick test_empty;
    Alcotest.test_case "int_heap ordering" `Quick test_ordering;
    Alcotest.test_case "int_heap clear" `Quick test_clear;
    Alcotest.test_case "int_heap interleaved push/pop" `Quick test_interleaved;
    Alcotest.test_case "int_heap capacity hint honoured" `Quick test_capacity_hint;
    QCheck_alcotest.to_alcotest prop_int_heap_sorts;
    Alcotest.test_case "wheel empty" `Quick test_wheel_empty;
    Alcotest.test_case "wheel ordering" `Quick test_wheel_ordering;
    Alcotest.test_case "wheel cross-level cascade" `Quick test_wheel_cascade;
    Alcotest.test_case "wheel overflow tier" `Quick test_wheel_overflow_tier;
    Alcotest.test_case "wheel overdue tier" `Quick test_wheel_overdue_tier;
    Alcotest.test_case "wheel FIFO within a tick" `Quick test_wheel_fifo_within_tick;
    Alcotest.test_case "wheel clear" `Quick test_wheel_clear;
    QCheck_alcotest.to_alcotest prop_wheel_sorts;
    QCheck_alcotest.to_alcotest prop_wheel_matches_int_heap;
  ]
