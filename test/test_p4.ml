(* Tests for the P4 switch model: the one-access-per-packet rule,
   register semantics, pipeline behaviour including recirculation
   bandwidth and drops, and the resource estimates. *)

open Draconis_sim
open Draconis_net
open Draconis_p4

(* -- Packet_ctx / Register: the memory-model rule ---------------------------- *)

let test_single_access_enforced () =
  let reg = Register.create ~name:"r" ~size:4 () in
  let ctx = Packet_ctx.create () in
  ignore (Register.read reg ctx 0);
  (match Register.read reg ctx 1 with
  | exception Packet_ctx.Access_violation "r" -> ()
  | _ -> Alcotest.fail "second access to the same register must raise");
  (* A different packet may access it again, and so may a reset context. *)
  let ctx2 = Packet_ctx.create () in
  ignore (Register.read reg ctx2 0);
  Packet_ctx.reset ctx;
  Alcotest.(check int) "reset empties the access set" 0 (Packet_ctx.access_count ctx);
  ignore (Register.read reg ctx 0)

let test_distinct_registers_ok () =
  let a = Register.create ~name:"a" ~size:1 () in
  let b = Register.create ~name:"b" ~size:1 () in
  let ctx = Packet_ctx.create () in
  ignore (Register.read a ctx 0);
  ignore (Register.read b ctx 0);
  Alcotest.(check int) "two registers accessed" 2 (Packet_ctx.access_count ctx)

let test_read_and_increment () =
  let reg = Register.create ~name:"ptr" ~size:1 () in
  let old1 = Register.read_and_increment reg (Packet_ctx.create ()) 0 in
  let old2 = Register.read_and_increment reg (Packet_ctx.create ()) 0 in
  Alcotest.(check int) "returns old" 0 old1;
  Alcotest.(check int) "increments" 1 old2;
  Alcotest.(check int) "value" 2 (Register.peek reg 0)

let test_rmw_and_write () =
  let reg = Register.create ~name:"x" ~size:2 () in
  Register.write reg (Packet_ctx.create ()) 1 42;
  let old = Register.read_modify_write reg (Packet_ctx.create ()) 1 (fun v -> v * 2) in
  Alcotest.(check int) "rmw returns old" 42 old;
  Alcotest.(check int) "rmw applied" 84 (Register.peek reg 1);
  Register.fill reg 5;
  Alcotest.(check (list int)) "fill sets every cell" [ 5; 5 ]
    [ Register.peek reg 0; Register.peek reg 1 ]

(* The closure-free RMWs are single accesses like read_modify_write:
   they return the old value and a second access raises. *)
let test_exchange_and_advance () =
  let reg = Register.create ~name:"ptr" ~size:2 () in
  let ctx = Packet_ctx.create () in
  Alcotest.(check int) "exchange returns old" 0 (Register.exchange reg ctx 1 7);
  Alcotest.(check int) "exchange stored" 7 (Register.peek reg 1);
  (match Register.read_and_advance reg ctx 0 ~modulus:3 with
  | exception Packet_ctx.Access_violation "ptr" -> ()
  | _ -> Alcotest.fail "a second access to the same register must raise");
  Alcotest.(check int) "a refused access changes nothing" 0 (Register.peek reg 0);
  let olds =
    List.init 4 (fun _ -> Register.read_and_advance reg (Packet_ctx.create ()) 0 ~modulus:3)
  in
  Alcotest.(check (list int)) "advance wraps at the modulus" [ 0; 1; 2; 0 ] olds;
  Alcotest.(check int) "pointer after four advances" 1 (Register.peek reg 0);
  (* The conditional RMWs store only when their condition holds. *)
  let run op = List.init 3 (fun _ -> op reg (Packet_ctx.create ()) 1) in
  let check_op name op ~olds ~final =
    Alcotest.(check (list int)) (name ^ " returns old values") olds (run op);
    Alcotest.(check int) (name ^ " final value") final (Register.peek reg 1)
  in
  check_op "compare_and_swap" ~olds:[ 7; 8; 8 ] ~final:8 (fun r c i ->
      Register.compare_and_swap r c i ~expected:7 ~desired:8);
  check_op "read_and_increment_below" ~olds:[ 8; 9; 10 ] ~final:10 (fun r c i ->
      Register.read_and_increment_below r c i ~limit:10);
  check_op "read_and_decrement_above" ~olds:[ 10; 9; 8 ] ~final:8 (fun r c i ->
      Register.read_and_decrement_above r c i ~floor:8);
  List.iter
    (fun (name, op) ->
      let ctx = Packet_ctx.create () in
      ignore (Register.read reg ctx 1);
      match op ctx with
      | exception Packet_ctx.Access_violation "ptr" ->
        Alcotest.(check int) (name ^ ": a refused access changes nothing") 8
          (Register.peek reg 1)
      | _ -> Alcotest.failf "%s: a second access to the same register must raise" name)
    [
      ("compare_and_swap", fun c -> Register.compare_and_swap reg c 1 ~expected:8 ~desired:0);
      ("read_and_increment_below", fun c -> Register.read_and_increment_below reg c 1 ~limit:9);
      ("read_and_decrement_above", fun c -> Register.read_and_decrement_above reg c 1 ~floor:0);
    ]

let test_register_bounds () =
  let reg = Register.create ~name:"b" ~size:2 () in
  (match Register.read reg (Packet_ctx.create ()) 2 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-bounds read must raise");
  match Register.poke reg (-1) 0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-bounds poke must raise"

let test_register_metadata () =
  let reg = Register.create ~name:"meta" ~size:8 () in
  Alcotest.(check int) "size" 8 (Register.size reg);
  Alcotest.(check int) "bits" 256 (Register.bits reg);
  Alcotest.(check string) "name" "meta" (Register.name reg)

let prop_one_access_per_packet =
  QCheck.Test.make ~name:"a packet can access n distinct registers but no repeats"
    ~count:50
    QCheck.(int_range 1 20)
    (fun n ->
      let regs = Array.init n (fun i -> Register.create ~name:(string_of_int i) ~size:1 ()) in
      let ctx = Packet_ctx.create () in
      Array.iter (fun reg -> ignore (Register.read reg ctx 0)) regs;
      (* Now every repeat must raise. *)
      Array.for_all
        (fun reg ->
          match Register.read reg ctx 0 with
          | exception Packet_ctx.Access_violation _ -> true
          | _ -> false)
        regs)

(* Differential test of the rule against a reference model: each context
   holds the set of registers its current traversal touched, [reset]
   empties it, and an in-bounds access raises iff the register is in the
   set.  Up to 3 live contexts interleave on 4 registers, so one context's
   access often lands between two of another's on the same register. *)
type step = Reset of int | Access of { ctx : int; reg : int; prim : int; idx : int; arg : int }

(* Each primitive as the register runs it, and as the model expects it
   from the cell's old value: the result ([0] for [write]) and the cell
   it leaves. *)
let primitives =
  [|
    ("read", (fun r c i _ -> Register.read r c i), fun old _ -> (old, old));
    ( "write",
      (fun r c i v ->
        Register.write r c i v;
        0),
      fun _ v -> (0, v) );
    ( "read_modify_write",
      (fun r c i _ -> Register.read_modify_write r c i succ),
      fun old _ -> (old, old + 1) );
    ("exchange", (fun r c i v -> Register.exchange r c i v), fun old v -> (old, v));
    ( "read_and_increment",
      (fun r c i _ -> Register.read_and_increment r c i),
      fun old _ -> (old, old + 1) );
    ( "read_and_advance",
      (fun r c i v -> Register.read_and_advance r c i ~modulus:(v + 1)),
      fun old v -> (old, if old + 1 >= v + 1 then 0 else old + 1) );
    ( "compare_and_swap",
      (fun r c i v -> Register.compare_and_swap r c i ~expected:v ~desired:(v + 1)),
      fun old v -> (old, if old = v then v + 1 else old) );
    ( "read_and_increment_below",
      (fun r c i v -> Register.read_and_increment_below r c i ~limit:v),
      fun old v -> (old, if old < v then old + 1 else old) );
    ( "read_and_decrement_above",
      (fun r c i v -> Register.read_and_decrement_above r c i ~floor:v),
      fun old v -> (old, if old > v then old - 1 else old) );
  |]

let n_ctxs = 3
let n_regs = 4
let reg_size = 2

let print_step = function
  | Reset c -> Printf.sprintf "reset c%d" c
  | Access { ctx; reg; prim; idx; arg } ->
    let name, _, _ = primitives.(prim) in
    Printf.sprintf "%s r%d c%d [%d] %d" name reg ctx idx arg

let gen_step =
  QCheck.Gen.(
    frequency
      [
        (1, map (fun c -> Reset c) (int_bound (n_ctxs - 1)));
        ( 6,
          map
            (fun (ctx, reg, prim, (idx, arg)) -> Access { ctx; reg; prim; idx; arg })
            (quad (int_bound (n_ctxs - 1)) (int_bound (n_regs - 1))
               (int_bound (Array.length primitives - 1))
               (* index [reg_size] is out of bounds *)
               (pair (int_bound reg_size) (int_bound 3))) );
      ])

let prop_access_rule_matches_model =
  QCheck.Test.make ~name:"access rule matches a per-context access-set model" ~count:500
    QCheck.(
      make ~print:(Print.list print_step) ~shrink:Shrink.list
        Gen.(list_size (int_range 1 60) gen_step))
    (fun steps ->
      let regs =
        Array.init n_regs (fun i ->
            Register.create ~name:(Printf.sprintf "r%d" i) ~size:reg_size ())
      in
      let ctxs = Array.init n_ctxs (fun _ -> Packet_ctx.create ()) in
      let touched = Array.make_matrix n_ctxs n_regs false in
      let cells r = Array.init reg_size (Register.peek r) in
      List.for_all
        (function
          | Reset c ->
            Packet_ctx.reset ctxs.(c);
            Array.fill touched.(c) 0 n_regs false;
            true
          | Access { ctx; reg; prim; idx; arg } -> (
            let r = regs.(reg) in
            let before = cells r in
            let in_bounds = idx < reg_size in
            let violation = in_bounds && touched.(ctx).(reg) in
            let _, run, _ = primitives.(prim) in
            match ignore (run r ctxs.(ctx) idx arg) with
            | () ->
              touched.(ctx).(reg) <- true;
              in_bounds && not violation
            | exception Invalid_argument _ -> (not in_bounds) && cells r = before
            | exception Packet_ctx.Access_violation name ->
              violation && name = Register.name r && cells r = before))
        steps)

(* Paged storage against a plain [int array]: sizes from one cell to
   three pages plus one (a page is 1,024 cells), indices biased to page
   boundaries and one past either end, every data-path primitive on two
   contexts, the control-plane ones and [fill].  Values, bounds errors
   and [Access_violation]s must match, and after each [fill] every cell
   must read the filled value, in pages written before it too. *)
type cell_op =
  | Fresh of int
  | Data of { ctx : int; prim : int; idx : int; arg : int }
  | Peek of int
  | Poke of int * int
  | Fill of int

let print_cell_op = function
  | Fresh c -> Printf.sprintf "reset c%d" c
  | Data { ctx; prim; idx; arg } ->
    let name, _, _ = primitives.(prim) in
    Printf.sprintf "%s c%d [%d] %d" name ctx idx arg
  | Peek i -> Printf.sprintf "peek [%d]" i
  | Poke (i, v) -> Printf.sprintf "poke [%d] %d" i v
  | Fill v -> Printf.sprintf "fill %d" v

let gen_paged_case =
  QCheck.Gen.(
    let value = frequency [ (4, int_bound 3); (1, int) ] in
    frequency [ (1, oneofl [ 1; 1023; 1024; 1025; 2048; 3072; 3073 ]); (2, int_range 1 3073) ]
    >>= fun size ->
    let index =
      frequency
        [
          (3, int_bound (size - 1));
          (2, oneofl [ -1; 0; 1023; 1024; 1025; 2047; 2048; 3071; 3072; size - 1; size ]);
        ]
    in
    let op =
      frequency
        [
          (3, map (fun c -> Fresh c) (int_bound 1));
          ( 6,
            map
              (fun (ctx, prim, idx, arg) -> Data { ctx; prim; idx; arg })
              (quad (int_bound 1) (int_bound (Array.length primitives - 1)) index value)
          );
          (1, map (fun i -> Peek i) index);
          (1, map2 (fun i v -> Poke (i, v)) index value);
          (1, map (fun v -> Fill v) (frequency [ (1, return 0); (2, value) ]));
        ]
    in
    map (fun ops -> (size, ops)) (list_size (int_range 1 80) op))

let prop_paged_cells_match_array =
  QCheck.Test.make ~name:"paged cells match an int array across page boundaries" ~count:500
    QCheck.(
      make
        ~print:Print.(pair int (list print_cell_op))
        ~shrink:(fun (size, ops) -> Iter.map (fun ops -> (size, ops)) (Shrink.list ops))
        gen_paged_case)
    (fun (size, ops) ->
      let r = Register.create ~name:"paged" ~size () in
      let model = Array.make size 0 in
      let ctxs = Array.init 2 (fun _ -> Packet_ctx.create ()) in
      let touched = Array.make 2 false in
      let in_bounds i = i >= 0 && i < size in
      let cells_match () =
        let ok = ref true in
        for i = 0 to size - 1 do
          if Register.peek r i <> model.(i) then ok := false
        done;
        !ok
      in
      List.for_all
        (function
          | Fresh c ->
            Packet_ctx.reset ctxs.(c);
            touched.(c) <- false;
            true
          | Data { ctx; prim; idx; arg } -> (
            let _, run, expect = primitives.(prim) in
            match run r ctxs.(ctx) idx arg with
            | got ->
              in_bounds idx
              && (not touched.(ctx))
              &&
              let want, cell = expect model.(idx) arg in
              touched.(ctx) <- true;
              model.(idx) <- cell;
              got = want
            | exception Invalid_argument _ -> not (in_bounds idx)
            | exception Packet_ctx.Access_violation name ->
              in_bounds idx && touched.(ctx) && name = "paged")
          | Peek i -> (
            match Register.peek r i with
            | v -> in_bounds i && v = model.(i)
            | exception Invalid_argument _ -> not (in_bounds i))
          | Poke (i, v) -> (
            match Register.poke r i v with
            | () ->
              in_bounds i
              &&
              (model.(i) <- v;
               true)
            | exception Invalid_argument _ -> not (in_bounds i))
          | Fill v ->
            Register.fill r v;
            Array.fill model 0 size v;
            cells_match ())
        ops
      && cells_match ())

(* A 4-page register whose writes gather on a few cells of each page
   and often store the fill value, so pages materialize, drain, go back
   to the blank and materialize again.  After each op the cell it
   touched, after each [fill] and [Peek_all] every cell, and at the end
   every cell must read as a plain [int array] does. *)
type drain_op =
  | D_write of int * int
  | D_poke of int * int
  | D_exchange of int * int
  | D_cas of int * int * int
  | D_fill of int
  | D_peek_all

let print_drain_op = function
  | D_write (i, v) -> Printf.sprintf "write [%d] %d" i v
  | D_poke (i, v) -> Printf.sprintf "poke [%d] %d" i v
  | D_exchange (i, v) -> Printf.sprintf "exchange [%d] %d" i v
  | D_cas (i, e, d) -> Printf.sprintf "cas [%d] %d -> %d" i e d
  | D_fill v -> Printf.sprintf "fill %d" v
  | D_peek_all -> "peek all"

let drain_pages = 4

let gen_drain_ops =
  QCheck.Gen.(
    let index =
      map2
        (fun page cell -> (page * 1024) + cell)
        (int_bound (drain_pages - 1))
        (frequency [ (4, int_bound 3); (1, int_bound 1023) ])
    in
    let value = frequency [ (3, return 0); (2, int_bound 3); (1, return 7) ] in
    list_size (int_range 1 300)
      (frequency
         [
           (4, map2 (fun i v -> D_write (i, v)) index value);
           (2, map2 (fun i v -> D_poke (i, v)) index value);
           (4, map2 (fun i v -> D_exchange (i, v)) index value);
           (2, map3 (fun i e d -> D_cas (i, e, d)) index value value);
           (1, map (fun v -> D_fill v) (oneofl [ 0; 3; 7 ]));
           (1, return D_peek_all);
         ]))

let prop_drained_pages_match_array =
  QCheck.Test.make ~name:"drained register pages match an int array" ~count:300
    QCheck.(make ~print:(Print.list print_drain_op) ~shrink:Shrink.list gen_drain_ops)
    (fun ops ->
      let size = drain_pages * 1024 in
      let r = Register.create ~name:"drain" ~size () in
      let model = Array.make size 0 in
      let ctx = Packet_ctx.create () in
      let fresh () =
        Packet_ctx.reset ctx;
        ctx
      in
      let all_match () =
        let ok = ref true in
        for i = 0 to size - 1 do
          if Register.peek r i <> model.(i) then ok := false
        done;
        !ok
      in
      List.for_all
        (fun op ->
          match op with
          | D_write (i, v) ->
            Register.write r (fresh ()) i v;
            model.(i) <- v;
            Register.peek r i = v
          | D_poke (i, v) ->
            Register.poke r i v;
            model.(i) <- v;
            Register.peek r i = v
          | D_exchange (i, v) ->
            let old = Register.exchange r (fresh ()) i v in
            let want = model.(i) in
            model.(i) <- v;
            old = want && Register.peek r i = v
          | D_cas (i, expected, desired) ->
            let old = Register.compare_and_swap r (fresh ()) i ~expected ~desired in
            let want = model.(i) in
            if want = expected then model.(i) <- desired;
            old = want && Register.peek r i = model.(i)
          | D_fill v ->
            Register.fill r v;
            Array.fill model 0 size v;
            all_match ()
          | D_peek_all -> all_match ())
        ops
      && all_match ())

(* -- Pipeline ------------------------------------------------------------------ *)

type pkt = Ping of int | Loop of int

let make_pipeline ?config program =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:9 in
  let fabric =
    Fabric.create
      ~config:{ Fabric.default_config with host_to_switch = Time.us 1; jitter = 0 }
      engine rng
  in
  let pipeline = Pipeline.attach ?config fabric ~wrap:(fun m -> m) program in
  (engine, fabric, pipeline)

let test_pipeline_emit () =
  let engine, fabric, pipeline =
    make_pipeline (fun _ctx pkt ->
        match pkt with
        | Ping n -> [ Pipeline.Emit (Addr.Host 1, Ping (n + 1)) ]
        | Loop _ -> [ Pipeline.Drop ])
  in
  let got = ref [] in
  Fabric.register fabric (Addr.Host 1) (fun env -> got := env.Fabric.payload :: !got);
  Fabric.send fabric ~src:(Addr.Host 0) ~dst:Addr.Switch (Ping 1);
  Engine.run engine;
  Alcotest.(check int) "one emitted" 1 (List.length !got);
  (match !got with
  | [ Ping 2 ] -> ()
  | _ -> Alcotest.fail "program output wrong");
  Alcotest.(check int) "processed" 1 (Pipeline.processed pipeline);
  (* The fabric counts the emit: the host's send, then the switch's. *)
  Alcotest.(check int) "emitted" 2 (Fabric.sent fabric)

let test_pipeline_recirculation () =
  let engine, _fabric, pipeline =
    make_pipeline (fun _ctx pkt ->
        match pkt with
        | Loop n when n > 0 -> [ Pipeline.Recirculate (Loop (n - 1)) ]
        | Loop _ -> [ Pipeline.Drop ]
        | Ping _ -> [ Pipeline.Drop ])
  in
  Pipeline.inject pipeline (Loop 5);
  Engine.run engine;
  Alcotest.(check int) "traversals = 1 + recircs" 6 (Pipeline.processed pipeline);
  Alcotest.(check int) "recirculated" 5 (Pipeline.recirculated pipeline);
  Alcotest.(check (float 1e-3)) "recirc fraction" (5.0 /. 6.0)
    (Pipeline.recirculation_fraction pipeline)

let test_pipeline_recirc_drops_when_saturated () =
  (* Slow recirculation port with a tiny queue: a burst must overflow. *)
  let config =
    {
      Pipeline.default_config with
      recirc_slot = Time.us 10;
      recirc_queue_limit = 4;
    }
  in
  let engine, _fabric, pipeline =
    make_pipeline ~config (fun _ctx pkt ->
        match pkt with
        | Ping _ -> [ Pipeline.Recirculate (Loop 0) ]
        | Loop _ -> [ Pipeline.Drop ])
  in
  for i = 1 to 50 do
    Pipeline.inject pipeline (Ping i)
  done;
  Engine.run engine;
  Alcotest.(check bool) "some dropped" true (Pipeline.recirc_dropped pipeline > 0);
  Alcotest.(check int) "dropped + recirculated = offered" 50
    (Pipeline.recirc_dropped pipeline + Pipeline.recirculated pipeline)

let test_pipeline_fresh_ctx_per_traversal () =
  (* A recirculated packet must be able to access the same register
     again: it is a new packet, and the pipeline resets its context. *)
  let reg = Register.create ~name:"shared" ~size:1 () in
  let engine, _fabric, pipeline =
    make_pipeline (fun ctx pkt ->
        ignore (Register.read_and_increment reg ctx 0);
        match pkt with
        | Ping n when n > 0 -> [ Pipeline.Recirculate (Ping (n - 1)) ]
        | Ping _ | Loop _ -> [ Pipeline.Drop ])
  in
  Pipeline.inject pipeline (Ping 3);
  Engine.run engine;
  Alcotest.(check int) "register touched once per traversal" 4 (Register.peek reg 0)

let test_pipeline_set_program () =
  let engine, fabric, pipeline = make_pipeline (fun _ _ -> [ Pipeline.Drop ]) in
  let got = ref 0 in
  Fabric.register fabric (Addr.Host 1) (fun _ -> incr got);
  Pipeline.set_program pipeline (fun _ _ -> [ Pipeline.Emit (Addr.Host 1, Ping 0) ]);
  Pipeline.inject pipeline (Ping 9);
  Engine.run engine;
  Alcotest.(check int) "new program in effect" 1 !got

(* -- Resources -------------------------------------------------------------------- *)

let test_resources_paper_numbers () =
  Alcotest.(check bool) "tofino1 fits 164K FCFS" true
    (Resources.fits Resources.tofino1 ~queue_entries:164_000 ~priority_levels:1);
  Alcotest.(check int) "tofino1 max levels" 4
    (Resources.max_priority_levels Resources.tofino1);
  Alcotest.(check bool) "tofino2 fits 1M FCFS" true
    (Resources.fits Resources.tofino2 ~queue_entries:1_000_000 ~priority_levels:1);
  Alcotest.(check int) "tofino2 max levels" 12
    (Resources.max_priority_levels Resources.tofino2)

let test_resources_monotone () =
  let e1 = Resources.max_queue_entries Resources.tofino1 ~priority_levels:1 in
  let e4 = Resources.max_queue_entries Resources.tofino1 ~priority_levels:4 in
  Alcotest.(check bool) "more levels, less capacity" true (e4 <= e1);
  Alcotest.(check bool) "oversubscribed does not fit" false
    (Resources.fits Resources.tofino1 ~queue_entries:(e1 + 1) ~priority_levels:1)

let test_resources_validation () =
  match Resources.max_queue_entries Resources.tofino1 ~priority_levels:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "zero levels must raise"

let suite =
  [
    Alcotest.test_case "one access per packet enforced" `Quick test_single_access_enforced;
    Alcotest.test_case "distinct registers allowed" `Quick test_distinct_registers_ok;
    Alcotest.test_case "read_and_increment" `Quick test_read_and_increment;
    Alcotest.test_case "rmw and write" `Quick test_rmw_and_write;
    Alcotest.test_case "exchange and read_and_advance" `Quick test_exchange_and_advance;
    Alcotest.test_case "register bounds" `Quick test_register_bounds;
    Alcotest.test_case "register metadata" `Quick test_register_metadata;
    QCheck_alcotest.to_alcotest prop_one_access_per_packet;
    QCheck_alcotest.to_alcotest prop_access_rule_matches_model;
    QCheck_alcotest.to_alcotest prop_paged_cells_match_array;
    QCheck_alcotest.to_alcotest prop_drained_pages_match_array;
    Alcotest.test_case "pipeline emit" `Quick test_pipeline_emit;
    Alcotest.test_case "pipeline recirculation" `Quick test_pipeline_recirculation;
    Alcotest.test_case "pipeline recirc saturation drops" `Quick
      test_pipeline_recirc_drops_when_saturated;
    Alcotest.test_case "pipeline fresh ctx per traversal" `Quick
      test_pipeline_fresh_ctx_per_traversal;
    Alcotest.test_case "pipeline program swap" `Quick test_pipeline_set_program;
    Alcotest.test_case "resource estimates match paper" `Quick test_resources_paper_numbers;
    Alcotest.test_case "resource capacity monotone" `Quick test_resources_monotone;
    Alcotest.test_case "resource validation" `Quick test_resources_validation;
  ]
