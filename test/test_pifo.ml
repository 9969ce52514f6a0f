(* The PIFO rank store: direct unit tests of admit/scan/claim under the
   one-access-per-register rule, rank-store edge cases (clamping,
   tie-break stability across renumbering, probe-budget exhaustion), and
   an end-to-end cluster run per PIFO discipline. *)

open Draconis_sim
open Draconis_proto
open Draconis
module Pifo = Draconis_pifo.Pifo
module Packet_ctx = Draconis_p4.Packet_ctx

let ctx () = Packet_ctx.create ()

let make_pifo ?(capacity = 32) ?(scan_width = 8) ?(word_count = 2) ?max_rank () =
  Pifo.create ~name:"t" ~capacity ~scan_width ~word_count ?max_rank ()

let words a b = [| a; b |]

(* Admit one entry, driving probe recirculations to completion. *)
let admit_exn p ~rank ~payload =
  let rec go = function
    | Pifo.Admitted { slot; packed } -> (slot, packed)
    | Pifo.Probing probe -> go (Pifo.probe p (ctx ()) probe)
    | Pifo.Full -> Alcotest.fail "unexpected Full"
  in
  go (Pifo.admit p (ctx ()) ~rank ~words:payload)

(* Pop one entry, driving scan and claim traversals to completion. *)
let rec pop p =
  let rec scan = function
    | Pifo.Empty -> None
    | Pifo.Drained -> Alcotest.fail "unexpected Drained"
    | Pifo.Scanning s -> scan (Pifo.scan_step p (ctx ()) s)
    | Pifo.Ready c -> (
      match Pifo.claim p (ctx ()) c with
      | Pifo.Claimed { words; packed; _ } -> Some (words, packed)
      | Pifo.Lost -> pop p)
  in
  scan (Pifo.scan_start p (ctx ()))

let pop_payload_exn p =
  match pop p with
  | Some (w, _) -> w
  | None -> Alcotest.fail "expected a claimable entry"

let test_rank_order () =
  let p = make_pifo () in
  List.iter
    (fun (rank, v) -> ignore (admit_exn p ~rank ~payload:(words v 0)))
    [ (50, 1); (10, 2); (30, 3); (20, 4); (40, 5) ];
  let out = List.init 5 (fun _ -> (pop_payload_exn p).(0)) in
  Alcotest.(check (list int)) "min-rank first" [ 2; 4; 3; 5; 1 ] out;
  Alcotest.(check (option reject)) "then empty"
    None
    (Option.map (fun _ -> ()) (pop p))

let test_fifo_tie_break () =
  let p = make_pifo () in
  (* Same rank: release order must be admission order. *)
  for v = 1 to 6 do
    ignore (admit_exn p ~rank:7 ~payload:(words v 0))
  done;
  let out = List.init 6 (fun _ -> (pop_payload_exn p).(0)) in
  Alcotest.(check (list int)) "same-rank FIFO" [ 1; 2; 3; 4; 5; 6 ] out

let test_tie_break_survives_renumber () =
  let p = make_pifo () in
  for v = 1 to 4 do
    ignore (admit_exn p ~rank:9 ~payload:(words v 0))
  done;
  ignore (admit_exn p ~rank:3 ~payload:(words 100 0));
  let before = Pifo.peek_slots p in
  Pifo.renumber p;
  let after = Pifo.peek_slots p in
  Alcotest.(check int) "renumber ran" 1 (Pifo.renumbers p);
  Alcotest.(check (list (triple int int int)))
    "packed order preserved, stamps compacted"
    (List.mapi (fun i (slot, rank, _) -> (slot, rank, i)) before)
    after;
  let out = List.init 5 (fun _ -> (pop_payload_exn p).(0)) in
  Alcotest.(check (list int)) "order across renumber" [ 100; 1; 2; 3; 4 ] out

let test_rank_clamp () =
  let p = make_pifo ~max_rank:1000 () in
  ignore (admit_exn p ~rank:5_000_000 ~payload:(words 1 0));
  ignore (admit_exn p ~rank:(-3) ~payload:(words 2 0));
  ignore (admit_exn p ~rank:999 ~payload:(words 3 0));
  Alcotest.(check int) "one clamp counted" 1 (Pifo.rank_clamps p);
  let ranks = List.map (fun (_, rank, _) -> rank) (Pifo.peek_slots p) in
  Alcotest.(check (list int)) "clamped into [0, max_rank]" [ 0; 999; 1000 ] ranks

let test_occupancy_gate_full () =
  let p = make_pifo ~capacity:8 ~scan_width:4 () in
  for v = 1 to 8 do
    ignore (admit_exn p ~rank:v ~payload:(words v 0))
  done;
  Alcotest.(check int) "full" 8 (Pifo.occupancy p);
  (match Pifo.admit p (ctx ()) ~rank:1 ~words:(words 99 0) with
  | Pifo.Full -> ()
  | _ -> Alcotest.fail "expected Full");
  Alcotest.(check int) "gate did not leak occupancy" 8 (Pifo.occupancy p);
  ignore (pop_payload_exn p);
  ignore (admit_exn p ~rank:1 ~payload:(words 99 0));
  Alcotest.(check int) "slot reusable after pop" 8 (Pifo.occupancy p)

(* Probe-budget exhaustion.  The occupancy gate guarantees a free cell
   exists when an admit passes it, so exhaustion needs a race: another
   claimer steals the free cell between the probe's traversals.  With 7
   of 8 cells filled (probes fill row 0 first, so the hole is in row 1),
   the gated admit leaves its first traversal [Probing]; a simulated
   racing claim then takes the hole, every later probe row is full, and
   the budget must trip [Full] — releasing the gate reservation. *)
let test_probe_budget_exhaustion () =
  let p = make_pifo ~capacity:8 ~scan_width:4 () in
  for v = 1 to 7 do
    ignore (admit_exn p ~rank:v ~payload:(words v 0))
  done;
  match Pifo.admit p (ctx ()) ~rank:50 ~words:(words 50 0) with
  | Pifo.Admitted _ -> Alcotest.fail "row 0 should be full"
  | Pifo.Full -> Alcotest.fail "gate should have admitted"
  | Pifo.Probing probe ->
    (* Racing claimer: stamp the one free cell (bank 3, row 1) from the
       control plane; [registers] lists the banks first. *)
    Draconis_p4.Register.poke (List.nth (Pifo.registers p) 3) 1 999;
    let rec exhaust probe n =
      if n > 2 * Pifo.probe_budget p then
        Alcotest.fail "probe never exhausted its budget"
      else
        match Pifo.probe p (ctx ()) probe with
        | Pifo.Full -> ()
        | Pifo.Probing probe -> exhaust probe (n + 1)
        | Pifo.Admitted _ -> Alcotest.fail "every cell is full"
    in
    exhaust probe 0;
    Alcotest.(check int) "occupancy reservation released" 7 (Pifo.occupancy p)

let test_claim_lost_on_renumber () =
  let p = make_pifo () in
  ignore (admit_exn p ~rank:5 ~payload:(words 1 0));
  let cand =
    let rec scan = function
      | Pifo.Ready c -> c
      | Pifo.Scanning s -> scan (Pifo.scan_step p (ctx ()) s)
      | Pifo.Empty | Pifo.Drained -> Alcotest.fail "expected a candidate"
    in
    scan (Pifo.scan_start p (ctx ()))
  in
  (* Control plane renumbers between scan and claim: epoch bump. *)
  Pifo.renumber p;
  (match Pifo.claim p (ctx ()) cand with
  | Pifo.Lost -> ()
  | Pifo.Claimed _ -> Alcotest.fail "stale claim must lose");
  Alcotest.(check int) "entry still stored" 1 (Pifo.occupancy p);
  Alcotest.(check int) "restarted pop still pops it" 1 (pop_payload_exn p).(0)

let test_claim_lost_on_race () =
  let p = make_pifo () in
  ignore (admit_exn p ~rank:5 ~payload:(words 1 0));
  let scan_candidate () =
    let rec scan = function
      | Pifo.Ready c -> c
      | Pifo.Scanning s -> scan (Pifo.scan_step p (ctx ()) s)
      | Pifo.Empty | Pifo.Drained -> Alcotest.fail "expected a candidate"
    in
    scan (Pifo.scan_start p (ctx ()))
  in
  let c1 = scan_candidate () in
  let c2 = scan_candidate () in
  (match Pifo.claim p (ctx ()) c1 with
  | Pifo.Claimed _ -> ()
  | Pifo.Lost -> Alcotest.fail "first claim should win");
  match Pifo.claim p (ctx ()) c2 with
  | Pifo.Lost -> ()
  | Pifo.Claimed _ -> Alcotest.fail "second claim of the same cell must lose"

(* §2.1.1: a single traversal may touch each register array once.  A
   true PIFO pop — reading two cells of one bank in one traversal, the
   O(capacity) min-extraction — must raise. *)
let test_true_pifo_scan_is_illegal () =
  let p = make_pifo () in
  ignore (admit_exn p ~rank:1 ~payload:(words 1 0));
  let bank0 = List.hd (Pifo.registers p) in
  let one_traversal = ctx () in
  ignore (Draconis_p4.Register.read bank0 one_traversal 0);
  Alcotest.check_raises "second cell of the same bank"
    (Packet_ctx.Access_violation "t.rank0") (fun () ->
      ignore (Draconis_p4.Register.read bank0 one_traversal 1))

(* Reusing one context across two PIFO operations trips the same rule
   on the first register both touch (the occupancy gate). *)
let test_single_traversal_access_violation () =
  let p = make_pifo () in
  ignore (admit_exn p ~rank:1 ~payload:(words 1 0));
  let shared = ctx () in
  ignore (Pifo.scan_start p shared);
  Alcotest.check_raises "second scan on one ctx"
    (Packet_ctx.Access_violation "t.occ") (fun () ->
      ignore (Pifo.scan_start p shared))

let test_create_validation () =
  let bad f = Alcotest.check_raises "invalid" (Invalid_argument f) in
  bad "Pifo.create: capacity must be a multiple of scan_width" (fun () ->
      ignore (Pifo.create ~name:"x" ~capacity:10 ~scan_width:4 ~word_count:1 ()));
  bad "Pifo.create: capacity too large for the tie-break stamp width" (fun () ->
      ignore
        (Pifo.create ~name:"x" ~capacity:(Pifo.seq_limit / 2) ~scan_width:1
           ~word_count:1 ()))

(* -- switch-program integration ------------------------------------------- *)

let pifo_pipeline =
  {
    Draconis_p4.Pipeline.default_config with
    recirc_slot = Time.ns 10;
    recirc_queue_limit = 4096;
  }

let cluster_config policy =
  {
    Cluster.default_config with
    workers = 2;
    executors_per_worker = 4;
    clients = 1;
    queue_capacity = 64;
    policy_of = (fun _ -> policy);
    pipeline_config = pifo_pipeline;
  }

let run_cluster ?(tasks = 50) ?(gap_us = 50) ~tprops_of policy =
  let cluster = Cluster.create (cluster_config policy) in
  Cluster.start cluster;
  let engine = Cluster.engine cluster in
  for i = 0 to tasks - 1 do
    ignore
      (Engine.schedule engine ~after:(Time.us (gap_us * i)) (fun () ->
           ignore
             (Client.submit_job (Cluster.client cluster 0)
                [
                  Task.make ~uid:0 ~jid:0 ~tid:i ~tprops:(tprops_of i)
                    ~fn_id:Task.Fn.busy_loop ~fn_par:(Time.us 100) ();
                ])))
  done;
  Cluster.run cluster ~until:(Time.ms 10);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 2) in
  (cluster, drained)

let check_cluster name (cluster, drained) =
  let m = Cluster.metrics cluster in
  Alcotest.(check bool) (name ^ " drained") true drained;
  Alcotest.(check int) (name ^ " all started") 50 (Metrics.started m);
  Alcotest.(check int) (name ^ " all completed") 50 (Metrics.completed m);
  Alcotest.(check int)
    (name ^ " rank store empty")
    0
    (Switch_program.total_occupancy (Cluster.program cluster))

let test_cluster_edf () =
  check_cluster "edf"
    (run_cluster
       ~tprops_of:(fun i -> Task.Deadline (Time.us (200 + (37 * i mod 900))))
       (Policy.Edf { default_deadline = Time.us 800 }))

let test_cluster_wfq () =
  check_cluster "wfq"
    (run_cluster
       ~tprops_of:(fun i -> Task.Tenant (i mod 3))
       (Policy.Wfq { quantum = Time.us 10; weights = [| 4; 2; 1 |] }))

let test_cluster_aging () =
  check_cluster "aging"
    (run_cluster
       ~tprops_of:(fun i -> Task.Priority (1 + (i mod 4)))
       (Policy.Aging_priority { levels = 4; quantum = Time.us 200 }))

(* Each PIFO discipline's full register allocation must place onto the
   default switch profile (the ISSUE's acceptance gate). *)
let test_layout_fits_tofino1 () =
  List.iter
    (fun policy ->
      let engine = Engine.create () in
      let program =
        Switch_program.create ~engine ~metrics:(Metrics.create engine) ~policy
          ~queue_capacity:64 ()
      in
      let constraints =
        Draconis_p4.Layout.of_profile Draconis_p4.Resources.tofino1
      in
      Alcotest.(check bool)
        (Format.asprintf "%a fits tofino1" Policy.pp policy)
        true
        (Draconis_p4.Layout.fits constraints (Switch_program.registers program)))
    [
      Policy.Edf { default_deadline = Time.us 800 };
      Policy.Wfq { quantum = Time.us 10; weights = [| 8; 4; 2; 1 |] };
      Policy.Aging_priority { levels = 4; quantum = Time.us 200 };
    ]

let suite =
  [
    Alcotest.test_case "rank order" `Quick test_rank_order;
    Alcotest.test_case "same-rank FIFO tie-break" `Quick test_fifo_tie_break;
    Alcotest.test_case "tie-break survives renumber" `Quick
      test_tie_break_survives_renumber;
    Alcotest.test_case "rank overflow clamps" `Quick test_rank_clamp;
    Alcotest.test_case "occupancy gate rejects when full" `Quick
      test_occupancy_gate_full;
    Alcotest.test_case "probe-budget exhaustion releases the gate" `Quick
      test_probe_budget_exhaustion;
    Alcotest.test_case "claim lost on renumber epoch bump" `Quick
      test_claim_lost_on_renumber;
    Alcotest.test_case "claim lost on race" `Quick test_claim_lost_on_race;
    Alcotest.test_case "true PIFO scan is illegal" `Quick
      test_true_pifo_scan_is_illegal;
    Alcotest.test_case "single-traversal access violation" `Quick
      test_single_traversal_access_violation;
    Alcotest.test_case "create validation" `Quick test_create_validation;
    Alcotest.test_case "cluster end-to-end: EDF" `Quick test_cluster_edf;
    Alcotest.test_case "cluster end-to-end: WFQ" `Quick test_cluster_wfq;
    Alcotest.test_case "cluster end-to-end: aging" `Quick test_cluster_aging;
    Alcotest.test_case "register layouts fit tofino1" `Quick
      test_layout_fits_tofino1;
  ]
