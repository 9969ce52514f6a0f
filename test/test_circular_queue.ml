(* Tests for the P4-compatible circular queue — the paper's central data
   structure.  Covers FIFO semantics, the full/empty optimistic-increment
   mistakes and their repairs, repair-flag behaviour, task swapping, and
   a model-based property test that drives random operation sequences
   against a plain functional queue model. *)

open Draconis_net
open Draconis_proto
open Draconis

let ctx () = Draconis_p4.Packet_ctx.create ()

let entry ?(skip = 0) n =
  Entry.make ~skip
    ~task:(Task.make ~uid:0 ~jid:0 ~tid:n ~fn_id:Task.Fn.busy_loop ~fn_par:(1000 * n) ())
    ~client:(Addr.Host 99) ()

let tid (e : Entry.t) = e.task.id.tid

let enqueue_ok q e =
  match Circular_queue.enqueue q (ctx ()) e with
  | Circular_queue.Enqueued { retrieve_repair; _ } -> retrieve_repair
  | Circular_queue.Rejected _ -> Alcotest.fail "unexpected rejection"

let dequeue_ok q =
  match Circular_queue.dequeue q (ctx ()) with
  | Circular_queue.Dequeued { entry; _ } -> entry
  | Circular_queue.Empty -> Alcotest.fail "unexpected empty"
  | Circular_queue.Repair_pending -> Alcotest.fail "unexpected repair-pending"

(* -- basic FIFO ------------------------------------------------------------- *)

let test_fifo_order () =
  let q = Circular_queue.create ~name:"q" ~capacity:8 () in
  List.iter (fun n -> ignore (enqueue_ok q (entry n))) [ 1; 2; 3 ];
  Alcotest.(check int) "occupancy" 3 (Circular_queue.occupancy q);
  Alcotest.(check (list int)) "FIFO" [ 1; 2; 3 ]
    (List.init 3 (fun _ -> tid (dequeue_ok q)));
  Alcotest.(check int) "empty occupancy" 0 (Circular_queue.occupancy q)

let test_entry_payload_preserved () =
  let q = Circular_queue.create ~name:"q" ~capacity:4 () in
  let original =
    Entry.make ~skip:7
      ~task:
        (Task.make ~uid:3 ~jid:9 ~tid:1 ~tprops:(Task.Locality [ 2; 5 ])
           ~fn_id:Task.Fn.data_task ~fn_par:123_456 ())
      ~client:(Addr.Host 42) ()
  in
  ignore (enqueue_ok q original);
  Alcotest.(check bool) "entry round-trips through registers" true
    (Entry.equal original (dequeue_ok q))

let test_wraparound () =
  let q = Circular_queue.create ~name:"q" ~capacity:3 () in
  (* Push/pop more than capacity to force slot reuse. *)
  for round = 0 to 9 do
    ignore (enqueue_ok q (entry round));
    Alcotest.(check int) "drains in order" round (tid (dequeue_ok q))
  done

(* -- empty-queue behaviour (lazy retrieve repair, §4.5) ----------------------- *)

let test_empty_dequeue_and_lazy_repair () =
  let q = Circular_queue.create ~name:"q" ~capacity:4 () in
  (* Dequeue on empty: optimistic increment overruns. *)
  (match Circular_queue.dequeue q (ctx ()) with
  | Circular_queue.Empty -> ()
  | _ -> Alcotest.fail "expected Empty");
  Alcotest.(check int) "retrieve_ptr overran" 1 (Circular_queue.peek_retrieve_ptr q);
  Alcotest.(check bool) "no flag yet (lazy)" false
    (Circular_queue.peek_retrieve_repair_flag q);
  (* Next enqueue detects the overrun and requests a repair. *)
  (match Circular_queue.enqueue q (ctx ()) (entry 1) with
  | Circular_queue.Enqueued { index; retrieve_repair = Some target } ->
    Alcotest.(check int) "repair targets the new task" index target
  | _ -> Alcotest.fail "expected enqueue with retrieve repair");
  Alcotest.(check bool) "flag set" true (Circular_queue.peek_retrieve_repair_flag q);
  (* While the repair is in flight, dequeues answer Repair_pending. *)
  (match Circular_queue.dequeue q (ctx ()) with
  | Circular_queue.Repair_pending -> ()
  | _ -> Alcotest.fail "expected Repair_pending");
  (* The repair packet lands. *)
  Circular_queue.apply_repair_retrieve q (ctx ()) ~target:0;
  Alcotest.(check bool) "flag cleared" false (Circular_queue.peek_retrieve_repair_flag q);
  Alcotest.(check int) "pointer repaired" 0 (Circular_queue.peek_retrieve_ptr q);
  (* And the queued task is now retrievable. *)
  Alcotest.(check int) "task recovered" 1 (tid (dequeue_ok q))

let test_only_one_retrieve_repair () =
  let q = Circular_queue.create ~name:"q" ~capacity:4 () in
  ignore (Circular_queue.dequeue q (ctx ()));
  ignore (Circular_queue.dequeue q (ctx ()));
  (* First enqueue launches the repair... *)
  (match Circular_queue.enqueue q (ctx ()) (entry 1) with
  | Circular_queue.Enqueued { retrieve_repair = Some _; _ } -> ()
  | _ -> Alcotest.fail "first enqueue should repair");
  (* ...and while it is in flight further submissions store normally
     (true occupancy 1 < 4, read from the repair target the flag word
     carries) but never launch a second retrieve repair. *)
  match Circular_queue.enqueue q (ctx ()) (entry 2) with
  | Circular_queue.Enqueued { retrieve_repair = None; _ } -> ()
  | Circular_queue.Enqueued { retrieve_repair = Some _; _ } ->
    Alcotest.fail "second enqueue must not launch another retrieve repair"
  | Circular_queue.Rejected _ ->
    Alcotest.fail "room remains during the repair window: store must proceed"

let test_no_overwrite_during_retrieve_repair () =
  (* Capacity 1 makes the hazard sharp: while a retrieve repair is in
     flight the retrieve pointer is inflated, so the naive pointer
     occupancy reads 0 even though the slot holds a live task.  The
     true occupancy (from the repair target in the flag word) must
     reject the store instead of overwriting the live slot. *)
  let q = Circular_queue.create ~name:"q" ~capacity:1 () in
  ignore (enqueue_ok q (entry 1));
  Alcotest.(check int) "first task drains" 1 (tid (dequeue_ok q));
  (match Circular_queue.dequeue q (ctx ()) with
  | Circular_queue.Empty -> ()
  | _ -> Alcotest.fail "expected Empty overrun");
  let target =
    match Circular_queue.enqueue q (ctx ()) (entry 2) with
    | Circular_queue.Enqueued { retrieve_repair = Some target; _ } -> target
    | _ -> Alcotest.fail "overrun-detecting enqueue should store and repair"
  in
  let add_target =
    match Circular_queue.enqueue q (ctx ()) (entry 3) with
    | Circular_queue.Rejected { add_repair = Some t; retrieve_repair = None } -> t
    | Circular_queue.Rejected _ -> Alcotest.fail "rejection must launch the add repair"
    | Circular_queue.Enqueued _ ->
      Alcotest.fail "store during the window would overwrite the live slot"
  in
  Circular_queue.apply_repair_retrieve q (ctx ()) ~target;
  Circular_queue.apply_repair_add q (ctx ()) ~target:add_target;
  (* The live task survived the window and drains; the queue then
     accepts the bounced task on resubmission. *)
  Alcotest.(check int) "live task survives" 2 (tid (dequeue_ok q));
  ignore (enqueue_ok q (entry 3));
  Alcotest.(check int) "bounced task resubmits" 3 (tid (dequeue_ok q))

(* -- full-queue behaviour (add repair, §4.5/§4.7.1) ---------------------------- *)

let fill q n =
  for i = 1 to n do
    ignore (enqueue_ok q (entry i))
  done

let test_full_rejection_and_repair () =
  let q = Circular_queue.create ~name:"q" ~capacity:2 () in
  fill q 2;
  (* Full: the mistaken increment must be repaired by this packet. *)
  let repair_target =
    match Circular_queue.enqueue q (ctx ()) (entry 3) with
    | Circular_queue.Rejected { add_repair = Some target; _ } -> target
    | _ -> Alcotest.fail "expected rejection with repair"
  in
  Alcotest.(check int) "add_ptr inflated" 3 (Circular_queue.peek_add_ptr q);
  Alcotest.(check bool) "add flag set" true (Circular_queue.peek_add_repair_flag q);
  (* A second full submission sees the flag: rejected, no second repair. *)
  (match Circular_queue.enqueue q (ctx ()) (entry 4) with
  | Circular_queue.Rejected { add_repair = None; _ } -> ()
  | _ -> Alcotest.fail "second rejection must not repair");
  (* Repair lands: pointer restored, flag cleared. *)
  Circular_queue.apply_repair_add q (ctx ()) ~target:repair_target;
  Alcotest.(check int) "add_ptr restored" 2 (Circular_queue.peek_add_ptr q);
  Alcotest.(check bool) "flag cleared" false (Circular_queue.peek_add_repair_flag q);
  (* Queue still serves its 2 tasks, in order. *)
  Alcotest.(check int) "head" 1 (tid (dequeue_ok q));
  Alcotest.(check int) "second" 2 (tid (dequeue_ok q))

let test_enqueue_while_add_repair_pending_rejected () =
  let q = Circular_queue.create ~name:"q" ~capacity:2 () in
  fill q 2;
  ignore (Circular_queue.enqueue q (ctx ()) (entry 3));
  (* Drain one slot: space exists, but the pending repair makes the
     pointer untrustworthy — submissions are still bounced (§4.7.1). *)
  ignore (dequeue_ok q);
  (match Circular_queue.enqueue q (ctx ()) (entry 4) with
  | Circular_queue.Rejected { add_repair = None; _ } -> ()
  | _ -> Alcotest.fail "must reject while add repair pending");
  Circular_queue.apply_repair_add q (ctx ()) ~target:2;
  (* Now the slot is usable again. *)
  ignore (enqueue_ok q (entry 5));
  Alcotest.(check int) "drains old then new" 2 (tid (dequeue_ok q));
  Alcotest.(check int) "new task" 5 (tid (dequeue_ok q))

(* -- stamp validity check -------------------------------------------------------- *)

let test_stale_slot_not_returned () =
  let q = Circular_queue.create ~name:"q" ~capacity:2 () in
  fill q 2;
  (* Inflate add_ptr via a full-queue mistake; do NOT apply the repair yet. *)
  ignore (Circular_queue.enqueue q (ctx ()) (entry 3));
  (* Drain both real tasks. *)
  ignore (dequeue_ok q);
  ignore (dequeue_ok q);
  (* retrieve_ptr = 2 < add_ptr = 3, but slot 2 mod 2 holds stale data;
     the stamp check must catch it. *)
  match Circular_queue.dequeue q (ctx ()) with
  | Circular_queue.Empty -> ()
  | Circular_queue.Dequeued _ -> Alcotest.fail "returned a stale slot!"
  | Circular_queue.Repair_pending -> Alcotest.fail "unexpected repair state"

(* -- swapping (§5.1) --------------------------------------------------------------- *)

let test_swap_exchanges_entries () =
  let q = Circular_queue.create ~name:"q" ~capacity:8 () in
  fill q 3;
  (* Swap a travelling task with the task at index 1. *)
  let travelling = entry ~skip:5 42 in
  (match Circular_queue.swap q (ctx ()) ~index:1 travelling with
  | Circular_queue.Swapped popped -> Alcotest.(check int) "old occupant" 2 (tid popped)
  | Circular_queue.Slot_invalid -> Alcotest.fail "slot should be valid");
  (* Pointers untouched. *)
  Alcotest.(check int) "retrieve_ptr unchanged" 0 (Circular_queue.peek_retrieve_ptr q);
  Alcotest.(check int) "add_ptr unchanged" 3 (Circular_queue.peek_add_ptr q);
  (* Queue order now 1, 42, 3; skip counter preserved through registers. *)
  Alcotest.(check int) "head" 1 (tid (dequeue_ok q));
  let swapped_in = dequeue_ok q in
  Alcotest.(check int) "swapped task" 42 (tid swapped_in);
  Alcotest.(check int) "skip preserved" 5 swapped_in.Entry.skip;
  Alcotest.(check int) "tail" 3 (tid (dequeue_ok q))

let test_swap_invalid_slot () =
  let q = Circular_queue.create ~name:"q" ~capacity:4 () in
  fill q 1;
  (match Circular_queue.swap q (ctx ()) ~index:3 (entry 9) with
  | Circular_queue.Slot_invalid -> ()
  | Circular_queue.Swapped _ -> Alcotest.fail "empty slot must be invalid");
  (* The probe must not corrupt the pending task. *)
  Alcotest.(check int) "pending task intact" 1 (tid (dequeue_ok q))

(* A swap aimed at a slot that another request has just emptied: the
   dequeue exchanged the slot's stamp for the free sentinel, so the swap
   must find the slot invalid.  It must not hand the dequeued task out a
   second time, nor leave the incoming task behind the retrieve
   pointer. *)
let test_swap_into_emptied_slot () =
  let q = Circular_queue.create ~name:"q" ~capacity:4 () in
  ignore (enqueue_ok q (entry 1));
  Alcotest.(check int) "dequeued" 1 (tid (dequeue_ok q));
  (match Circular_queue.swap q (ctx ()) ~index:0 (entry 9) with
  | Circular_queue.Slot_invalid -> ()
  | Circular_queue.Swapped e ->
    Alcotest.failf "swap handed out task %d a second time" (tid e));
  match Circular_queue.dequeue q (ctx ()) with
  | Circular_queue.Empty -> ()
  | Circular_queue.Dequeued { entry = e; _ } ->
    Alcotest.failf "dequeue of an emptied queue returned task %d" (tid e)
  | Circular_queue.Repair_pending -> Alcotest.fail "unexpected repair-pending"

let test_read_pointers () =
  let q = Circular_queue.create ~name:"q" ~capacity:4 () in
  fill q 2;
  ignore (dequeue_ok q);
  let add_ptr, retrieve_ptr = Circular_queue.read_pointers q (ctx ()) in
  Alcotest.(check (pair int int)) "pointers" (2, 1) (add_ptr, retrieve_ptr)

let test_peek_entry () =
  let q = Circular_queue.create ~name:"q" ~capacity:4 () in
  fill q 1;
  (match Circular_queue.peek_entry q ~index:0 with
  | Some e -> Alcotest.(check int) "peek sees task" 1 (tid e)
  | None -> Alcotest.fail "expected entry");
  Alcotest.(check bool) "empty slot peeks None" true
    (Circular_queue.peek_entry q ~index:1 = None)

let test_register_bits_accounting () =
  let q = Circular_queue.create ~name:"q" ~capacity:100 () in
  (* 11 word arrays + stamp array, each 100 cells, plus 4 single cells. *)
  Alcotest.(check int) "register bits" ((12 * 100 * 32) + (4 * 32))
    (Circular_queue.register_bits q)

let test_create_validation () =
  match Circular_queue.create ~name:"bad" ~capacity:0 () with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "capacity 0 must raise"

(* -- model-based property test ---------------------------------------------------- *)

type model_op = Enq | Deq | Swap of int

let print_model_op = function
  | Enq -> "enq"
  | Deq -> "deq"
  | Swap d -> Printf.sprintf "swap %+d" d

(* Small capacities keep every register array eager (one page); 1,100
   and 2,500 slots are paged, and their op lists are long enough for the
   ring to wrap, so slots are swept, drained and written again.  A swap
   aims at the retrieve pointer plus an offset: behind it are slots
   just emptied, ahead of it pending tasks and then free slots. *)
let gen_fifo_case =
  QCheck.Gen.(
    frequency [ (3, int_range 1 8); (1, oneofl [ 1_100; 2_500 ]) ] >>= fun capacity ->
    let length =
      if capacity > 8 then int_range (3 * capacity) (4 * capacity) else int_range 1 200
    in
    let op =
      frequency
        [
          (5, return Enq);
          (5, return Deq);
          (2, map (fun d -> Swap d) (int_range (-4) 12));
        ]
    in
    map (fun ops -> (capacity, ops)) (list_size length op))

(* Drive random enqueue/dequeue/swap sequences (applying requested
   repairs immediately, as the pipeline's recirculation would within
   ~1us) and compare against a plain FIFO model of (write-index, task)
   pairs: a swap succeeds exactly on a pending task's write-index and
   hands out that task. *)
let prop_matches_fifo_model =
  QCheck.Test.make ~name:"circular queue behaves as a bounded FIFO under repairs"
    ~count:300
    (QCheck.make
       ~print:QCheck.Print.(pair int (list print_model_op))
       ~shrink:(fun (capacity, ops) ->
         QCheck.Iter.map (fun ops -> (capacity, ops)) (QCheck.Shrink.list ops))
       gen_fifo_case)
    (fun (capacity, ops) ->
      let q = Circular_queue.create ~name:"model" ~capacity () in
      let wrap = Circular_queue.wrap_modulus q in
      let model = Queue.create () in
      let next = ref 0 in
      let ok = ref true in
      List.iter
        (function
          | Enq -> (
            incr next;
            let e = entry !next in
            match Circular_queue.enqueue q (ctx ()) e with
            | Circular_queue.Enqueued { index; retrieve_repair } ->
              if Queue.length model >= capacity then ok := false;
              Queue.add (index, ref !next) model;
              (match retrieve_repair with
              | Some target -> Circular_queue.apply_repair_retrieve q (ctx ()) ~target
              | None -> ())
            | Circular_queue.Rejected { add_repair; _ } -> (
              if Queue.length model < capacity then ok := false;
              match add_repair with
              | Some target -> Circular_queue.apply_repair_add q (ctx ()) ~target
              | None -> ()))
          | Deq -> (
            match Circular_queue.dequeue q (ctx ()) with
            | Circular_queue.Dequeued { index; entry = e } -> (
              match Queue.take_opt model with
              | Some (i, expected) -> if i <> index || tid e <> !expected then ok := false
              | None -> ok := false)
            | Circular_queue.Empty -> if not (Queue.is_empty model) then ok := false
            | Circular_queue.Repair_pending -> ok := false)
          | Swap d -> (
            let index =
              (((Circular_queue.peek_retrieve_ptr q + d) mod wrap) + wrap) mod wrap
            in
            let pending =
              Queue.fold (fun acc (i, t) -> if i = index then Some t else acc) None model
            in
            incr next;
            match (Circular_queue.swap q (ctx ()) ~index (entry !next), pending) with
            | Circular_queue.Swapped e, Some t ->
              if tid e <> !t then ok := false;
              t := !next
            | Circular_queue.Slot_invalid, None -> ()
            | Circular_queue.Swapped _, None | Circular_queue.Slot_invalid, Some _ ->
              ok := false))
        ops;
      !ok && Circular_queue.occupancy q = Queue.length model)

(* With repairs applied immediately, every data-path op leaves the
   registers consistent: pointers never differ by more than capacity. *)
let prop_pointer_invariant =
  QCheck.Test.make ~name:"pointer gap never exceeds capacity (repairs applied)"
    ~count:200
    QCheck.(pair (int_range 1 6) (list_of_size (Gen.int_range 1 100) bool))
    (fun (capacity, ops) ->
      let q = Circular_queue.create ~name:"inv" ~capacity () in
      let ok = ref true in
      List.iter
        (fun is_enqueue ->
          (if is_enqueue then begin
             match Circular_queue.enqueue q (ctx ()) (entry 1) with
             | Circular_queue.Enqueued { retrieve_repair = Some target; _ } ->
               Circular_queue.apply_repair_retrieve q (ctx ()) ~target
             | Circular_queue.Rejected { add_repair = Some target; _ } ->
               Circular_queue.apply_repair_add q (ctx ()) ~target
             | Circular_queue.Enqueued { retrieve_repair = None; _ }
             | Circular_queue.Rejected { add_repair = None; _ } ->
               ()
           end
           else ignore (Circular_queue.dequeue q (ctx ())));
          let gap =
            Circular_queue.peek_add_ptr q - Circular_queue.peek_retrieve_ptr q
          in
          if gap > capacity then ok := false)
        ops;
      !ok)

let suite =
  [
    Alcotest.test_case "FIFO order" `Quick test_fifo_order;
    Alcotest.test_case "entry payload preserved" `Quick test_entry_payload_preserved;
    Alcotest.test_case "wraparound slot reuse" `Quick test_wraparound;
    Alcotest.test_case "empty dequeue + lazy retrieve repair" `Quick
      test_empty_dequeue_and_lazy_repair;
    Alcotest.test_case "single retrieve repair in flight" `Quick
      test_only_one_retrieve_repair;
    Alcotest.test_case "no overwrite during retrieve repair" `Quick
      test_no_overwrite_during_retrieve_repair;
    Alcotest.test_case "full rejection + add repair" `Quick test_full_rejection_and_repair;
    Alcotest.test_case "reject while add repair pending" `Quick
      test_enqueue_while_add_repair_pending_rejected;
    Alcotest.test_case "stale slot caught by stamp" `Quick test_stale_slot_not_returned;
    Alcotest.test_case "swap exchanges entries" `Quick test_swap_exchanges_entries;
    Alcotest.test_case "swap into invalid slot" `Quick test_swap_invalid_slot;
    Alcotest.test_case "swap into an emptied slot" `Quick test_swap_into_emptied_slot;
    Alcotest.test_case "read_pointers" `Quick test_read_pointers;
    Alcotest.test_case "peek_entry" `Quick test_peek_entry;
    Alcotest.test_case "register bits accounting" `Quick test_register_bits_accounting;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    QCheck_alcotest.to_alcotest prop_matches_fifo_model;
    QCheck_alcotest.to_alcotest prop_pointer_invariant;
  ]
