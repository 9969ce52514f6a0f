(* Tests for parallel-in-run sharding: the topology partitioner, the
   Lp/Sync conservative-window protocol, the DRACONIS_SHARDS knob, and the determinism contract on the real
   sharded cluster — identical outcomes across shard counts, seeds,
   service mixes, worker domains and fault plans (the cluster's own
   guards live in test_sharded_cluster.ml). *)

open Draconis_sim
module H = Draconis_harness
module Synthetic = Draconis_workload.Synthetic
module Topology = Draconis_net.Topology
module F = Draconis_fault

(* -- topology partitioning ------------------------------------------------- *)

let test_partition_rack_aligned () =
  let topo = Topology.create ~nodes:12 ~racks:4 in
  let part = Topology.partition topo ~groups:2 in
  Alcotest.(check int) "covers all hosts" 12 (Array.length part);
  (* Rack-aligned: no rack straddles a group boundary. *)
  for rack = 0 to 3 do
    let groups =
      List.sort_uniq compare
        (List.map (fun h -> part.(h)) (Topology.hosts_in_rack topo rack))
    in
    Alcotest.(check int)
      (Printf.sprintf "rack %d in one group" rack)
      1 (List.length groups)
  done;
  (* Contiguous and onto [0, groups). *)
  Alcotest.(check int) "first group" 0 part.(0);
  Alcotest.(check int) "last group" 1 part.(11);
  Array.iteri
    (fun h g ->
      if h > 0 && g < part.(h - 1) then
        Alcotest.failf "groups not monotone at host %d" h)
    part;
  Alcotest.(check int) "group_of matches" part.(7)
    (Topology.group_of topo ~groups:2 7)

let test_partition_more_groups_than_racks () =
  let topo = Topology.create ~nodes:10 ~racks:2 in
  let part = Topology.partition topo ~groups:5 in
  let sizes = Array.make 5 0 in
  Array.iter (fun g -> sizes.(g) <- sizes.(g) + 1) part;
  Array.iteri
    (fun g n -> Alcotest.(check int) (Printf.sprintf "group %d size" g) 2 n)
    sizes

let test_partition_bounds () =
  let topo = Topology.create ~nodes:4 ~racks:2 in
  let raises f = try f () ; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "groups=0 rejected" true (raises (fun () ->
      ignore (Topology.partition topo ~groups:0)));
  Alcotest.(check bool) "groups>nodes rejected" true (raises (fun () ->
      ignore (Topology.partition topo ~groups:5)));
  let ident = Topology.partition topo ~groups:4 in
  Array.iteri (fun h g -> Alcotest.(check int) "one host per group" h g) ident

(* -- Lp inbox safety ------------------------------------------------------- *)

let test_lp_post_floor_violation () =
  let lp = Lp.create ~id:0 ~seed:1 () in
  Lp.set_floor lp 100;
  (try
     Lp.post lp ~at:100 ~src:0 ~seq:1 ignore;
     Alcotest.fail "expected lookahead violation"
   with Invalid_argument _ -> ());
  Lp.post lp ~at:101 ~src:0 ~seq:2 ignore;
  Alcotest.(check int) "accepted post pending" 1 (Lp.inbox_length lp)

(* Injection order must follow the (at, src, seq) stamp, not the post
   (domain-schedule) order. *)
let test_injection_sorted_by_stamp () =
  let lp = Lp.create ~id:0 ~seed:1 () in
  let order = ref [] in
  let mark n () = order := n :: !order in
  Lp.post lp ~at:50 ~src:9 ~seq:1 (mark 3);
  Lp.post lp ~at:50 ~src:2 ~seq:7 (mark 2);
  Lp.post lp ~at:40 ~src:9 ~seq:2 (mark 1);
  Lp.post lp ~at:50 ~src:9 ~seq:9 (mark 4);
  Lp.inject lp ~upto:100;
  Engine.run (Lp.engine lp);
  Alcotest.(check (list int)) "stamp order" [ 1; 2; 3; 4 ] (List.rev !order)

(* Random stamped posts, each made before the window that injects it,
   run in (at, src, seq) order across ten windows.  A post not yet due
   must survive each window's compaction, and the 80-300 posts push the
   inbox well past its initial capacity. *)
let prop_inbox_windows =
  let window = 100 and windows = 10 in
  let post_gen =
    (* (at, src, window it is posted in): posted no later than the
       window whose horizon covers [at]. *)
    QCheck.Gen.(
      int_range 1 (window * windows) >>= fun at ->
      pair (int_range 0 7) (int_range 0 ((at - 1) / window)) >|= fun (src, w) ->
      (at, src, w))
  in
  QCheck.Test.make ~name:"Lp inbox injects random posts in stamp order" ~count:100
    QCheck.(make Gen.(list_size (int_range 80 300) post_gen))
    (fun posts ->
      let lp = Lp.create ~id:0 ~seed:1 () in
      let seqs = Array.make 8 0 in
      (* Per-source monotone seq numbers, in post order. *)
      let posts =
        List.map
          (fun (at, src, w) ->
            seqs.(src) <- seqs.(src) + 1;
            (at, src, seqs.(src), w))
          posts
      in
      let ran = ref [] in
      let pending = ref 0 in
      for w = 0 to windows - 1 do
        let upto = (w + 1) * window in
        List.iter
          (fun (at, src, seq, pw) ->
            if pw = w then begin
              incr pending;
              Lp.post lp ~at ~src ~seq (fun () -> ran := (at, src, seq) :: !ran)
            end)
          posts;
        Lp.inject lp ~upto;
        Lp.set_floor lp upto;
        Engine.run ~until:upto (Lp.engine lp);
        let later = List.filter (fun (at, _, _, pw) -> pw <= w && at > upto) posts in
        if Lp.inbox_length lp <> List.length later then
          QCheck.Test.fail_reportf "window %d: %d left in the inbox, %d not yet due" w
            (Lp.inbox_length lp) (List.length later)
      done;
      let expected = List.sort compare (List.map (fun (at, src, seq, _) -> (at, src, seq)) posts) in
      List.rev !ran = expected
      && Lp.injected lp = List.length posts
      && Lp.posted lp = !pending)

(* -- Sync across a seq-counter renumber ------------------------------------ *)

(* Mirror test_pool's FIFO-ties-across-renumber, but with the churn
   driven through barrier windows and a cross-LP message landing at the
   same instant as the direct ties: the packed-key renumber must neither
   reorder ties nor disturb inbox injection. *)
let test_sync_ties_survive_renumber () =
  let lp0 = Lp.create ~id:0 ~seed:1 () in
  let lp1 = Lp.create ~id:1 ~seed:1 () in
  let sync = Sync.create ~lookahead:100 [| lp0; lp1 |] in
  let e0 = Lp.engine lp0 in
  let target = 3_000_000 in
  let order = ref [] in
  let mark n () = order := n :: !order in
  ignore (Engine.schedule e0 ~after:target (mark 1));
  ignore (Engine.schedule e0 ~after:target (mark 2));
  (* Churn > 2^21 schedule+cancel pairs in drained batches, advancing
     the clocks through Sync windows (10ns per batch, far short of the
     ties' timestamp). *)
  let churn = (1 lsl 21) + 100_000 in
  for _ = 1 to churn / 500 do
    let hs = List.init 500 (fun _ -> Engine.schedule e0 ~after:10 ignore) in
    List.iter (Engine.cancel e0) hs;
    Sync.run ~until:(Engine.now e0 + 10) sync
  done;
  (* Two more direct ties after the renumber... *)
  ignore (Engine.schedule e0 ~after:(target - Engine.now e0) (mark 3));
  ignore (Engine.schedule e0 ~after:(target - Engine.now e0) (mark 4));
  (* ...and a cross-LP message arriving at the same instant. *)
  let e1 = Lp.engine lp1 in
  ignore
    (Engine.schedule e1 ~after:10 (fun () -> Lp.post lp0 ~at:target ~src:1 ~seq:1 (mark 5)));
  Sync.run sync;
  Alcotest.(check (list int)) "ties + injection in order" [ 1; 2; 3; 4; 5 ]
    (List.rev !order);
  Alcotest.(check int) "cross-post injected" 1 (Lp.injected lp0);
  Alcotest.(check bool) "drained" true (Sync.drained sync)

(* -- the determinism contract on the real sharded cluster ------------------ *)

(* A 4-worker x 4-executor, 2-client, 2-rack Draconis cluster for 10 ms;
   [kind] tasks are offered at the utilization 90k tasks/s puts on
   100 us tasks (~56%), and [seed] drives both cluster and workload. *)
let cluster_spec = { H.Systems.workers = 4; executors_per_worker = 4; clients = 2; seed = 7 }
let horizon = Time.ms 10

let run_cluster ?(kind = Synthetic.Fixed_100us) ~seed shards =
  let executors = cluster_spec.workers * cluster_spec.executors_per_worker in
  let utilization =
    90_000.0 /. H.Exp_common.capacity_tps Synthetic.Fixed_100us ~executors
  in
  let rate_tps = utilization *. H.Exp_common.capacity_tps kind ~executors in
  let system = H.Systems.draconis ~racks:2 ~shards { cluster_spec with seed } in
  H.Runner.run system
    ~driver:(H.Exp_common.synthetic_driver kind ~rate_tps ~horizon)
    ~load_tps:rate_tps ~horizon ~workload_seed:seed ()

(* Every outcome field except wall-clock throughput. *)
let digest (o : H.Runner.outcome) =
  [
    ("submitted", o.submitted);
    ("started", o.started);
    ("completed", o.completed);
    ("timeouts", o.timeouts);
    ("rejected", o.rejected);
    ("p50", o.sched_p50);
    ("p99", o.sched_p99);
    ("mean_ns", int_of_float o.sched_mean);
    ("swaps", o.swaps);
    ("recirculations", o.recirculations);
    ("repair_flags", o.repair_flags);
    ("events", o.events);
    ("drained", if o.drained then 1 else 0);
  ]

let check_equal_across_shards ?(shard_counts = [ 1; 2; 4 ]) run =
  let reference = run (List.hd shard_counts) in
  List.iter
    (fun shards ->
      Alcotest.(check (list (pair string int)))
        (Printf.sprintf "shards=%d == shards=%d" shards (List.hd shard_counts))
        (digest reference) (digest (run shards)))
    (List.tl shard_counts);
  reference

let test_sharded_equals_sequential () =
  let r = check_equal_across_shards (run_cluster ~seed:42) in
  Alcotest.(check bool) "work happened" true (r.completed > 100);
  Alcotest.(check bool) "drained" true r.drained

(* fig6 shape: bimodal service times (short tasks with a heavy tail). *)
let test_bimodal_equality () =
  let r = check_equal_across_shards (run_cluster ~kind:Synthetic.Bimodal ~seed:7) in
  Alcotest.(check bool) "tail produced queueing" true (r.sched_p99 > 0)

(* Randomized workloads: the contract must hold for arbitrary seeds. *)
let test_random_seeds_equality =
  QCheck.Test.make ~count:8 ~name:"sharded = sequential on random seeds"
    QCheck.(pair (int_bound 1_000_000) bool)
    (fun (seed, bimodal) ->
      let kind = if bimodal then Synthetic.Bimodal else Synthetic.Fixed_100us in
      digest (run_cluster ~kind ~seed 1) = digest (run_cluster ~kind ~seed 3))

(* Worker domains must not change anything either: 4 shards whose
   windows run inline (one job) vs over a 2-lane team. *)
let test_workers_equality () =
  let saved = H.Pool.jobs () in
  let with_jobs n =
    H.Pool.set_jobs n;
    Fun.protect
      ~finally:(fun () -> H.Pool.set_jobs saved)
      (fun () -> run_cluster ~seed:11 4)
  in
  Alcotest.(check (list (pair string int)))
    "2 lanes == inline"
    (digest (with_jobs 1))
    (digest (with_jobs 2))

(* One plan with all five event kinds, armed through the injector:
   fail-over on the switch LP, crash + restart and a straggler on their
   workers' LPs, a loss burst and a two-host cut as fabric windows.
   Outcome digest, fired log and recovery report are identical at every
   shard count and lane count. *)
let fault_plan =
  F.Plan.of_string
    "straggler@1ms:node=1,factor=4,dur=4ms; failover@2ms; crash@3ms:node=2,down=1ms; \
     partition@4ms:hosts=0+5,dur=1ms; burst@6ms:dur=500us,loss=0.1"

let run_faulted shards =
  let cluster, system =
    H.Systems.draconis_cluster ~racks:2 ~shards ~client_timeout:(Time.ms 2)
      { cluster_spec with seed = 42 }
  in
  let injector = F.Injector.arm fault_plan (F.Target.of_cluster cluster) in
  let rate_tps = 90_000.0 in
  let outcome =
    H.Runner.run system
      ~driver:(H.Exp_common.synthetic_driver Synthetic.Fixed_100us ~rate_tps ~horizon)
      ~load_tps:rate_tps ~horizon ~workload_seed:42 ()
  in
  ( digest outcome,
    F.Injector.fired injector,
    F.Recovery.measure ~metrics:system.H.Systems.metrics ~injector ~until:horizon () )

let test_fault_plan_equality () =
  let with_jobs n f =
    let saved = H.Pool.jobs () in
    H.Pool.set_jobs n;
    Fun.protect ~finally:(fun () -> H.Pool.set_jobs saved) f
  in
  let digest_1, fired_1, report_1 = with_jobs 1 (fun () -> run_faulted 1) in
  let check name (digest, fired, report) =
    Alcotest.(check (list (pair string int))) (name ^ ": outcome") digest_1 digest;
    Alcotest.(check (list (pair int string))) (name ^ ": fired") fired_1 fired;
    Alcotest.(check bool) (name ^ ": recovery report") true (report = report_1)
  in
  List.iter
    (fun (jobs, shards) ->
      check
        (Printf.sprintf "jobs=%d shards=%d" jobs shards)
        (with_jobs jobs (fun () -> run_faulted shards)))
    [ (1, 2); (1, 4); (2, 4) ];
  Alcotest.(check int) "every edge fired" 9 (List.length fired_1);
  Alcotest.(check int) "one fail-over" 1 report_1.F.Recovery.failovers;
  Alcotest.(check bool) "the standby assigned again" true
    (report_1.F.Recovery.recovery <> None);
  Alcotest.(check bool) "drops become timeouts" true (report_1.F.Recovery.timeouts > 0);
  Alcotest.(check bool) "the rest completed" true (List.assoc "completed" digest_1 > 800)

(* -- the DRACONIS_SHARDS knob ---------------------------------------------- *)

let test_shards_knob () =
  let raises f = try f () ; false with Invalid_argument _ -> true in
  Alcotest.(check bool) "0 rejected" true (raises (fun () -> H.Shard.set_shards 0));
  Alcotest.(check bool) "above cap rejected" true
    (raises (fun () -> H.Shard.set_shards (H.Shard.max_shards + 1)));
  H.Shard.set_shards 2;
  Alcotest.(check int) "override sticks" 2 (H.Shard.shards ());
  H.Shard.set_shards 1

let test_env_shards_fails_loudly () =
  (* A bad DRACONIS_SHARDS must raise, not warn and run unsharded. *)
  let with_env v f =
    Unix.putenv H.Shard.env_var v;
    Fun.protect ~finally:(fun () -> Unix.putenv H.Shard.env_var "") f
  in
  let rejects v =
    with_env v (fun () ->
        try
          ignore (H.Shard.env_shards ());
          false
        with Invalid_argument _ -> true)
  in
  Alcotest.(check bool) "garbage rejected" true (rejects "two");
  Alcotest.(check bool) "zero rejected" true (rejects "0");
  Alcotest.(check bool) "above cap rejected" true
    (rejects (string_of_int (H.Shard.max_shards + 1)));
  with_env "4" (fun () ->
      Alcotest.(check (option int)) "valid setting honoured" (Some 4)
        (H.Shard.env_shards ()));
  with_env "" (fun () ->
      Alcotest.(check (option int)) "empty means unset" None (H.Shard.env_shards ()))

let suite =
  [
    Alcotest.test_case "topology partition is rack-aligned" `Quick
      test_partition_rack_aligned;
    Alcotest.test_case "partition with more groups than racks" `Quick
      test_partition_more_groups_than_racks;
    Alcotest.test_case "partition bounds" `Quick test_partition_bounds;
    Alcotest.test_case "Lp.post rejects stamps below the floor" `Quick
      test_lp_post_floor_violation;
    Alcotest.test_case "injection sorts by (at, src, seq)" `Quick
      test_injection_sorted_by_stamp;
    QCheck_alcotest.to_alcotest prop_inbox_windows;
    Alcotest.test_case "ties + injection survive renumber" `Slow
      test_sync_ties_survive_renumber;
    Alcotest.test_case "sharded = sequential outcomes" `Quick
      test_sharded_equals_sequential;
    Alcotest.test_case "bimodal (fig6-shape) equality" `Quick test_bimodal_equality;
    QCheck_alcotest.to_alcotest test_random_seeds_equality;
    Alcotest.test_case "worker domains do not change outcomes" `Quick
      test_workers_equality;
    Alcotest.test_case "fault plans compose with sharding" `Quick
      test_fault_plan_equality;
    Alcotest.test_case "DRACONIS_SHARDS knob validation" `Quick test_shards_knob;
    Alcotest.test_case "DRACONIS_SHARDS fails loudly" `Quick
      test_env_shards_fails_loudly;
  ]
