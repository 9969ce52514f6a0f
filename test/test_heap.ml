(* Unit and property tests for the two priority structures behind the
   engine's event queue: the hierarchical timing wheel and the
   monomorphic binary heap (its side tiers, and the reference order the
   wheel is checked against). *)

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

(* -- Wheel ------------------------------------------------------------------- *)

(* [shift:0] makes every key its own tick, so plain ints exercise the
   bucket machinery directly. *)
let make_wheel () = Wheel.create ~shift:0 ()

let test_wheel_empty () =
  let w = make_wheel () in
  Alcotest.(check int) "length" 0 (Wheel.length w);
  Alcotest.(check bool) "is_empty" true (Wheel.is_empty w);
  Alcotest.check_raises "pop raises" Not_found (fun () -> ignore (Wheel.pop w));
  Alcotest.check_raises "peek raises" Not_found (fun () ->
      ignore (Wheel.peek_key w))

let test_wheel_ordering () =
  let w = make_wheel () in
  List.iter (fun k -> Wheel.push w k (10 * k)) [ 5; 1; 4; 8; 3; 9; 2 ];
  Alcotest.(check int) "length" 7 (Wheel.length w);
  Alcotest.(check int) "peek min key" 1 (Wheel.peek_key w);
  let keys = ref [] in
  Wheel.drain w (fun k _ -> keys := k :: !keys);
  Alcotest.(check (list int)) "sorted drain" [ 1; 2; 3; 4; 5; 8; 9 ] (List.rev !keys);
  Alcotest.(check bool) "empty after drain" true (Wheel.is_empty w)

let test_wheel_cascade () =
  (* Keys spanning several levels force cascading as the cursor sweeps
     forward; values must stay attached to their keys. *)
  let w = make_wheel () in
  let keys = [ 3; 40; 1_100; 33_000; 1_050_000; 20_000_000 ] in
  List.iter (fun k -> Wheel.push w k (k * 2)) keys;
  let out = ref [] in
  Wheel.drain w (fun k v ->
      Alcotest.(check int) "value rides its key" (k * 2) v;
      out := k :: !out);
  Alcotest.(check (list int)) "cross-level order" keys (List.rev !out)

let test_wheel_overflow_tier () =
  let w = make_wheel () in
  let far = 1 lsl 30 in
  (* Near key first: an empty wheel snaps its cursor to the first push,
     so pushing [far] first would just re-anchor the window around it. *)
  Wheel.push w 5 2;
  Wheel.push w far 1;
  Alcotest.(check int) "far key parked in overflow" 1 (Wheel.overflow_length w);
  Alcotest.(check (pair int int)) "near key first" (5, 2) (Wheel.pop w);
  Alcotest.(check (pair int int)) "overflow key still pops" (far, 1) (Wheel.pop w);
  Alcotest.(check bool) "empty" true (Wheel.is_empty w)

let test_wheel_overdue_tier () =
  let w = make_wheel () in
  Wheel.push w 100 1;
  Alcotest.(check (pair int int)) "advance cursor" (100, 1) (Wheel.pop w);
  Wheel.push w 200 2;
  (* The cursor sits at 100 now; a push behind it lands overdue but must
     still pop first. *)
  Wheel.push w 50 3;
  Alcotest.(check int) "behind-cursor key parked overdue" 1 (Wheel.overdue_length w);
  Alcotest.(check (pair int int)) "overdue pops first" (50, 3) (Wheel.pop w);
  Alcotest.(check (pair int int)) "then the wheel" (200, 2) (Wheel.pop w)

let test_wheel_fifo_within_tick () =
  (* Same tick, distinct pushes: bucket order is FIFO, so values come
     back in insertion order. *)
  let w = make_wheel () in
  List.iter (fun v -> Wheel.push w 7 v) [ 1; 2; 3; 4 ];
  let out = ref [] in
  Wheel.drain w (fun _ v -> out := v :: !out);
  Alcotest.(check (list int)) "insertion order" [ 1; 2; 3; 4 ] (List.rev !out)

let test_wheel_clear () =
  let w = make_wheel () in
  List.iter (fun k -> Wheel.push w k k) [ 1; 2; 1 lsl 28 ];
  Wheel.clear w;
  Alcotest.(check int) "cleared" 0 (Wheel.length w);
  Alcotest.(check bool) "empty" true (Wheel.is_empty w);
  Wheel.push w 9 9;
  Alcotest.(check (pair int int)) "usable after clear" (9, 9) (Wheel.pop w)

let prop_wheel_sorts =
  QCheck.Test.make ~name:"wheel pops any key list in sorted order" ~count:200
    QCheck.(list (int_range 0 (1 lsl 28)))
    (fun keys ->
      let w = make_wheel () in
      List.iteri (fun i k -> Wheel.push w k i) keys;
      let out = ref [] in
      Wheel.drain w (fun k _ -> out := k :: !out);
      List.rev !out = List.sort compare keys)

let prop_wheel_matches_int_heap =
  (* Interleaved pushes and pops against the reference heap, including
     pushes behind the cursor (the overdue tier) and far beyond the
     window (the overflow tier). *)
  QCheck.Test.make ~name:"wheel and int_heap agree under interleaved push/pop"
    ~count:200
    QCheck.(list (int_range 0 (1 lsl 28)))
    (fun keys ->
      let w = make_wheel () in
      let h = Int_heap.create () in
      let ok = ref true in
      List.iteri
        (fun i k ->
          Wheel.push w k i;
          Int_heap.push h k i;
          if i mod 3 = 0 && not (Int_heap.is_empty h) then begin
            let wk, wv = Wheel.pop w in
            let hk, _ = Int_heap.pop h in
            (* Equal keys are possible here (unlike engine keys), and
               the two structures may break such ties differently, so
               compare keys only. *)
            ignore wv;
            if wk <> hk then ok := false
          end)
        keys;
      while not (Int_heap.is_empty h) do
        let wk, _ = Wheel.pop w in
        let hk, _ = Int_heap.pop h in
        if wk <> hk then ok := false
      done;
      !ok && Wheel.is_empty w)

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
