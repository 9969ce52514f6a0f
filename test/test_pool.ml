(* Tests for the domain work pool and the parallel-sweep determinism
   guarantee: --jobs 1 and --jobs N must produce identical rows. *)

open Draconis_sim
open Draconis_workload
module H = Draconis_harness

let test_map_ordered () =
  let results = H.Pool.map ~jobs:4 (List.init 32 (fun i () -> i * i)) in
  Alcotest.(check (list int))
    "submission order" (List.init 32 (fun i -> i * i)) results

let test_map_sequential () =
  (* jobs = 1 runs inline in the submitting domain. *)
  let ran_in = ref [] in
  let results =
    H.Pool.map ~jobs:1
      (List.init 8 (fun i () ->
           ran_in := (Domain.self () :> int) :: !ran_in;
           i))
  in
  Alcotest.(check (list int)) "results" (List.init 8 Fun.id) results;
  let self = (Domain.self () :> int) in
  Alcotest.(check bool) "all inline" true (List.for_all (( = ) self) !ran_in)

let test_all_jobs_run () =
  let count = Atomic.make 0 in
  let results =
    H.Pool.map ~jobs:3
      (List.init 20 (fun i () ->
           Atomic.incr count;
           i))
  in
  Alcotest.(check int) "20 results" 20 (List.length results);
  Alcotest.(check int) "20 executions" 20 (Atomic.get count)

let test_exception_propagates () =
  let count = Atomic.make 0 in
  let jobs =
    List.init 10 (fun i () ->
        Atomic.incr count;
        if i = 3 then failwith "job 3 exploded";
        i)
  in
  (try
     ignore (H.Pool.map ~jobs:4 jobs);
     Alcotest.fail "expected Failure"
   with Failure msg -> Alcotest.(check string) "message" "job 3 exploded" msg);
  (* A failing job does not cancel the rest of the grid. *)
  Alcotest.(check int) "all jobs still ran" 10 (Atomic.get count)

let test_earliest_exception_wins () =
  let jobs =
    List.init 6 (fun i () ->
        if i >= 2 then failwith (Printf.sprintf "job %d" i);
        i)
  in
  try
    ignore (H.Pool.map ~jobs:4 jobs);
    Alcotest.fail "expected Failure"
  with Failure msg -> Alcotest.(check string) "lowest index" "job 2" msg

let test_empty_pool () =
  Alcotest.(check (list int)) "no jobs" [] (H.Pool.map ~jobs:4 []);
  Alcotest.(check (list int)) "no jobs seq" [] (H.Pool.map ~jobs:1 [])

(* A job count outside [1, max_jobs] is a configuration error for [map]
   as for [set_jobs]: it raises instead of being clamped. *)
let test_map_jobs_range () =
  let raises jobs =
    try
      ignore (H.Pool.map ~jobs [ (fun () -> 1) ]);
      false
    with Invalid_argument _ -> true
  in
  Alcotest.(check bool) "jobs 0 rejected" true (raises 0);
  Alcotest.(check bool) "jobs above the cap rejected" true (raises (H.Pool.max_jobs + 1))

(* -- worker-count cap ------------------------------------------------------ *)

let test_set_jobs_cap () =
  let raises f = try f () ; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "0 rejected" true (raises (fun () -> H.Pool.set_jobs 0));
  Alcotest.(check bool) "above cap rejected" true
    (raises (fun () -> H.Pool.set_jobs (H.Pool.max_jobs + 1)));
  H.Pool.set_jobs 1;
  Alcotest.(check int) "cap itself accepted" 1 (H.Pool.jobs ())

let test_env_jobs_fails_loudly () =
  (* A bad DRACONIS_JOBS is a configuration error: it must raise, not
     warn and silently fall back to the default parallelism. *)
  let with_env v f =
    Unix.putenv "DRACONIS_JOBS" v;
    Fun.protect ~finally:(fun () -> Unix.putenv "DRACONIS_JOBS" "") f
  in
  let rejects v =
    with_env v (fun () ->
        try
          ignore (H.Pool.default_jobs ());
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "garbage rejected" true (rejects "three");
  Alcotest.(check bool) "zero rejected" true (rejects "0");
  Alcotest.(check bool) "above cap rejected" true
    (rejects (string_of_int (H.Pool.max_jobs + 1)));
  with_env "2" (fun () ->
      Alcotest.(check int) "valid setting honoured" 2 (H.Pool.default_jobs ()));
  with_env "" (fun () ->
      Alcotest.(check bool) "empty means unset" true (H.Pool.default_jobs () >= 1))

(* -- persistent worker team ------------------------------------------------ *)

let test_team_runs_batches () =
  let team = H.Pool.Team.create ~size:3 in
  Fun.protect
    ~finally:(fun () -> H.Pool.Team.shutdown team)
    (fun () ->
      Alcotest.(check int) "size" 3 (H.Pool.Team.size team);
      let total = Atomic.make 0 in
      (* Many small batches, like barrier windows. *)
      for _ = 1 to 50 do
        H.Pool.Team.run team
          (Array.init 8 (fun i () -> ignore (Atomic.fetch_and_add total (i + 1))))
      done;
      Alcotest.(check int) "every thunk of every batch ran" (50 * 36)
        (Atomic.get total);
      H.Pool.Team.run team [||]);
  (* Back-to-back batches of 1-3 thunks on two lanes, the shape of a
     sharded run's barrier windows: a helper still claiming from one
     batch while the caller publishes the next must neither run a thunk
     twice nor take one of the next batch's. *)
  let team = H.Pool.Team.create ~size:2 in
  Fun.protect
    ~finally:(fun () -> H.Pool.Team.shutdown team)
    (fun () ->
      let batches = 20_000 in
      let sizes = Array.init batches (fun b -> 1 + (b mod 3)) in
      let slots = Array.init (Array.fold_left ( + ) 0 sizes) (fun _ -> Atomic.make 0) in
      let first = ref 0 in
      Array.iter
        (fun size ->
          let base = !first in
          H.Pool.Team.run team (Array.init size (fun i () -> Atomic.incr slots.(base + i)));
          first := base + size)
        sizes;
      Array.iteri
        (fun k slot ->
          let runs = Atomic.get slot in
          if runs <> 1 then Alcotest.failf "thunk %d ran %d times" k runs)
        slots)

(* Two thunks raise; whichever lane ran them and whichever raised
   first, the lower index's exception comes back, after the whole
   batch has run. *)
let test_team_exception_propagates () =
  List.iter
    (fun size ->
      let team = H.Pool.Team.create ~size in
      Fun.protect
        ~finally:(fun () -> H.Pool.Team.shutdown team)
        (fun () ->
          let ran = Atomic.make 0 in
          (try
             H.Pool.Team.run team
               (Array.init 6 (fun i () ->
                    Atomic.incr ran;
                    if i = 2 || i = 4 then failwith (Printf.sprintf "window %d exploded" i)));
             Alcotest.fail "expected Failure"
           with Failure msg ->
             Alcotest.(check string)
               (Printf.sprintf "size %d: lowest index" size)
               "window 2 exploded" msg);
          Alcotest.(check int) "batch barrier completed" 6 (Atomic.get ran);
          (* The team survives a failed batch. *)
          let ok = Atomic.make 0 in
          H.Pool.Team.run team (Array.init 4 (fun _ () -> Atomic.incr ok));
          Alcotest.(check int) "next batch healthy" 4 (Atomic.get ok)))
    [ 1; 2; 3 ]

let test_team_shutdown () =
  let team = H.Pool.Team.create ~size:2 in
  H.Pool.Team.shutdown team;
  H.Pool.Team.shutdown team;
  (* idempotent *)
  (try
     H.Pool.Team.run team [| (fun () -> ()) |];
     Alcotest.fail "expected rejection after shutdown"
   with Invalid_argument _ -> ());
  let raises f = try f () ; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "size 0 rejected" true (raises (fun () ->
      ignore (H.Pool.Team.create ~size:0)));
  Alcotest.(check bool) "oversized team rejected" true (raises (fun () ->
      ignore (H.Pool.Team.create ~size:(H.Pool.max_jobs + 1))))

(* Team batches must be execution-order independent: the set of effects
   (here: each thunk records its index, whichever lane claimed it) is
   the same for every team size, across repeated epochs on one team. *)
let test_team_size_independence () =
  let batch = 97 in
  let run_with size =
    let team = H.Pool.Team.create ~size in
    Fun.protect
      ~finally:(fun () -> H.Pool.Team.shutdown team)
      (fun () ->
        let out = ref [] in
        for epoch = 0 to 2 do
          let slots = Array.make batch (-1) in
          H.Pool.Team.run team
            (Array.init batch (fun i () -> slots.(i) <- (epoch * batch) + i));
          out := Array.to_list slots :: !out
        done;
        List.rev !out)
  in
  let reference = run_with 1 in
  List.iter
    (fun size ->
      Alcotest.(check (list (list int)))
        (Printf.sprintf "team size %d matches size 1" size)
        reference (run_with size))
    [ 2; 3 ]

(* -- determinism: the tentpole guarantee ----------------------------------- *)

let small_spec =
  { H.Systems.workers = 4; executors_per_worker = 4; clients = 1; seed = 7 }

(* A fig5a-style grid: (system x load) points, each a self-contained
   closure building its own engine and workload RNG. *)
let grid_closures () =
  let kind = Synthetic.Fixed_100us in
  let systems =
    [
      (fun () -> H.Systems.draconis small_spec);
      (fun () -> H.Systems.r2p2 ~k:3 ~client_timeout:(Time.ms 2) small_spec);
    ]
  in
  let loads = [ 20_000.0; 40_000.0 ] in
  List.concat_map
    (fun make ->
      List.map
        (fun load () ->
          let horizon = Time.ms 10 in
          let driver = H.Exp_common.synthetic_driver kind ~rate_tps:load ~horizon in
          H.Runner.run (make ()) ~driver ~load_tps:load ~horizon ())
        loads)
    systems

let test_jobs1_jobs4_identical () =
  let sequential = H.Pool.map ~jobs:1 (grid_closures ()) in
  let parallel = H.Pool.map ~jobs:4 (grid_closures ()) in
  Alcotest.(check int) "same length" (List.length sequential) (List.length parallel);
  List.iter2
    (fun (a : H.Runner.outcome) (b : H.Runner.outcome) ->
      if a <> b then
        Alcotest.failf "outcome mismatch for %s@%.0ftps: %a vs %a" a.system
          a.load_tps H.Runner.pp_outcome a H.Runner.pp_outcome b)
    sequential parallel

let test_repeated_parallel_runs_identical () =
  let a = H.Pool.map ~jobs:4 (grid_closures ()) in
  let b = H.Pool.map ~jobs:4 (grid_closures ()) in
  Alcotest.(check bool) "identical across runs" true (a = b)

(* -- engine seq-counter renumbering ---------------------------------------- *)

(* Schedule enough events to overflow the packed key's 21-bit sequence
   field; the engine must renumber the pending queue and keep both
   timestamp order and FIFO tie-breaking intact. *)
let test_engine_seq_renumber () =
  let engine = Engine.create () in
  let target = (1 lsl 21) + 50_000 in
  let executed = ref 0 in
  let last_at = ref (-1) in
  let rec reschedule n =
    if n > 0 then
      ignore
        (Engine.schedule engine ~after:((n mod 7) + 1) (fun () ->
             incr executed;
             let now = Engine.now engine in
             if now < !last_at then Alcotest.fail "clock went backwards";
             last_at := now;
             reschedule (n - 1)))
  in
  (* Keep ~1000 events pending while churning through > 2^21 total
     schedules, so renumbering triggers with a non-trivial queue. *)
  let pending = 1000 in
  let per_chain = target / pending in
  for _ = 1 to pending do
    reschedule per_chain
  done;
  Engine.run engine;
  Alcotest.(check int) "all events executed" (pending * per_chain) !executed

let test_engine_fifo_ties_across_renumber () =
  let engine = Engine.create () in
  let order = ref [] in
  (* Two events at the same instant scheduled before the churn... *)
  ignore (Engine.schedule engine ~after:1_000_000 (fun () -> order := 1 :: !order));
  ignore (Engine.schedule engine ~after:1_000_000 (fun () -> order := 2 :: !order));
  (* ...then enough churn to overflow the sequence counter while those
     two are still pending.  Each batch is drained (cancelled events pop
     without firing) so the queue stays small and the clock stays well
     short of the ties' timestamp: ~4400 batches x 10ns << 1ms. *)
  let churn = (1 lsl 21) + 100_000 in
  for _ = 1 to churn / 500 do
    let hs = List.init 500 (fun _ -> Engine.schedule engine ~after:10 ignore) in
    List.iter (Engine.cancel engine) hs;
    Engine.run ~until:(Engine.now engine + 10) engine
  done;
  (* ...and two more ties scheduled after the renumber. *)
  ignore (Engine.schedule engine ~after:1_000_000 (fun () -> order := 3 :: !order));
  ignore (Engine.schedule engine ~after:1_000_000 (fun () -> order := 4 :: !order));
  Engine.run engine;
  Alcotest.(check (list int)) "FIFO at equal timestamps" [ 1; 2; 3; 4 ]
    (List.rev !order)

let suite =
  [
    Alcotest.test_case "map returns submission order" `Quick test_map_ordered;
    Alcotest.test_case "jobs=1 runs inline" `Quick test_map_sequential;
    Alcotest.test_case "all jobs run" `Quick test_all_jobs_run;
    Alcotest.test_case "exception propagates" `Quick test_exception_propagates;
    Alcotest.test_case "earliest exception wins" `Quick test_earliest_exception_wins;
    Alcotest.test_case "empty pool" `Quick test_empty_pool;
    Alcotest.test_case "map rejects jobs out of range" `Quick test_map_jobs_range;
    Alcotest.test_case "set_jobs validates the cap" `Quick test_set_jobs_cap;
    Alcotest.test_case "DRACONIS_JOBS fails loudly" `Quick test_env_jobs_fails_loudly;
    Alcotest.test_case "team runs repeated batches" `Quick test_team_runs_batches;
    Alcotest.test_case "team propagates exceptions" `Quick
      test_team_exception_propagates;
    Alcotest.test_case "team shutdown" `Quick test_team_shutdown;
    Alcotest.test_case "team is size-independent" `Quick test_team_size_independence;
    Alcotest.test_case "determinism: jobs=1 vs jobs=4" `Slow test_jobs1_jobs4_identical;
    Alcotest.test_case "determinism: repeated parallel runs" `Slow
      test_repeated_parallel_runs_identical;
    Alcotest.test_case "engine renumbers past 2^21 schedules" `Slow
      test_engine_seq_renumber;
    Alcotest.test_case "engine FIFO ties survive renumber" `Slow
      test_engine_fifo_ties_across_renumber;
  ]
