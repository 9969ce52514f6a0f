(* Tests for the structural stage-placement model, including mechanical
   verification of the paper's sec-7 capacity claims against the real
   register allocations of the switch program. *)

open Draconis_sim
open Draconis_p4
open Draconis

let reg name size = Register.create ~name ~size ()

let tiny = { Layout.stages = 2; arrays_per_stage = 2; bits_per_stage = 1024 }

let test_simple_placement () =
  let regs = [ reg "a" 8; reg "b" 8; reg "c" 4 ] in
  match Layout.place tiny regs with
  | Error e -> Alcotest.failf "placement failed: %a" Layout.pp_error e
  | Ok placement ->
    Alcotest.(check int) "all placed" 3 (List.length placement.Layout.stage_of);
    Array.iteri
      (fun stage used ->
        Alcotest.(check bool) "slot budget" true (used <= tiny.arrays_per_stage);
        Alcotest.(check bool) "bit budget" true
          (placement.Layout.bits_used.(stage) <= tiny.bits_per_stage))
      placement.Layout.arrays_used

let test_register_too_large () =
  match Layout.place tiny [ reg "huge" 64 ] with
  | Error (Layout.Register_too_large "huge") -> ()
  | _ -> Alcotest.fail "expected Register_too_large"

let test_out_of_slots () =
  (* Five small arrays on 2x2 slots cannot fit. *)
  match Layout.place tiny (List.init 5 (fun i -> reg (string_of_int i) 1)) with
  | Error (Layout.Out_of_stage_slots _) -> ()
  | _ -> Alcotest.fail "expected Out_of_stage_slots"

let test_bit_budget_respected () =
  (* Two 768-bit arrays cannot share one 1024-bit stage but fit in two. *)
  match Layout.place tiny [ reg "x" 24; reg "y" 24 ] with
  | Ok placement ->
    let stage_of name = List.assoc name placement.Layout.stage_of in
    Alcotest.(check bool) "split across stages" true (stage_of "x" <> stage_of "y")
  | Error e -> Alcotest.failf "placement failed: %a" Layout.pp_error e

let test_render () =
  match Layout.place tiny [ reg "a" 4 ] with
  | Ok placement ->
    Alcotest.(check bool) "render mentions stage" true
      (Astring.String.is_infix ~affix:"stage" (Layout.render placement))
  | Error _ -> Alcotest.fail "placement failed"

(* -- the paper's sec-7 claims, structurally ---------------------------------- *)

let program_registers ~policy ~queue_capacity =
  let engine = Engine.create () in
  let program =
    Switch_program.create ~engine ~metrics:(Metrics.create engine) ~policy ~queue_capacity ()
  in
  Switch_program.registers program

let test_fcfs_164k_fits_tofino1 () =
  let regs = program_registers ~policy:Policy.Fcfs ~queue_capacity:164_000 in
  Alcotest.(check bool) "164K-entry FCFS queue places on Tofino 1" true
    (Layout.fits (Layout.of_profile Resources.tofino1) regs)

let test_fcfs_1m_fits_tofino2_not_tofino1 () =
  let regs = program_registers ~policy:Policy.Fcfs ~queue_capacity:1_000_000 in
  Alcotest.(check bool) "1M-entry queue places on Tofino 2" true
    (Layout.fits (Layout.of_profile Resources.tofino2) regs);
  Alcotest.(check bool) "1M-entry queue does not place on Tofino 1" false
    (Layout.fits (Layout.of_profile Resources.tofino1) regs)

let test_four_priority_levels_fit_tofino1 () =
  let capacity = Resources.max_queue_entries Resources.tofino1 ~priority_levels:4 in
  let regs =
    program_registers ~policy:(Policy.Priority { levels = 4 }) ~queue_capacity:capacity
  in
  Alcotest.(check bool) "4 x per-level queues place on Tofino 1" true
    (Layout.fits (Layout.of_profile Resources.tofino1) regs)

let test_twelve_levels_fit_tofino2_not_tofino1 () =
  let capacity = Resources.max_queue_entries Resources.tofino2 ~priority_levels:12 in
  let regs =
    program_registers ~policy:(Policy.Priority { levels = 12 }) ~queue_capacity:capacity
  in
  Alcotest.(check bool) "12 levels place on Tofino 2" true
    (Layout.fits (Layout.of_profile Resources.tofino2) regs);
  Alcotest.(check bool) "12 levels do not place on Tofino 1" false
    (Layout.fits (Layout.of_profile Resources.tofino1) regs)

let prop_arithmetic_and_structural_agree =
  QCheck.Test.make
    ~name:"Resources arithmetic capacity always places structurally (FCFS)" ~count:10
    QCheck.(int_range 1 4)
    (fun levels ->
      let profile = Resources.tofino1 in
      let capacity = Resources.max_queue_entries profile ~priority_levels:levels in
      QCheck.assume (capacity > 0);
      let regs =
        program_registers
          ~policy:(if levels = 1 then Policy.Fcfs else Policy.Priority { levels })
          ~queue_capacity:capacity
      in
      Layout.fits (Layout.of_profile profile) regs)

let suite =
  [
    Alcotest.test_case "simple placement" `Quick test_simple_placement;
    Alcotest.test_case "register too large" `Quick test_register_too_large;
    Alcotest.test_case "out of slots" `Quick test_out_of_slots;
    Alcotest.test_case "bit budget respected" `Quick test_bit_budget_respected;
    Alcotest.test_case "render" `Quick test_render;
    Alcotest.test_case "sec7: 164K FCFS on Tofino 1" `Quick test_fcfs_164k_fits_tofino1;
    Alcotest.test_case "sec7: 1M on Tofino 2 only" `Quick
      test_fcfs_1m_fits_tofino2_not_tofino1;
    Alcotest.test_case "sec7: 4 levels on Tofino 1" `Quick
      test_four_priority_levels_fit_tofino1;
    Alcotest.test_case "sec7: 12 levels on Tofino 2 only" `Quick
      test_twelve_levels_fit_tofino2_not_tofino1;
    QCheck_alcotest.to_alcotest prop_arithmetic_and_structural_agree;
  ]
