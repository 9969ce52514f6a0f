(* Tests for the transmission-function mechanism (paper §4.4): tasks
   submitted without parameters; the executor fetches them from the
   client before running. *)

open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis

let fetch_task ~us n =
  Task.make ~uid:0 ~jid:0 ~tid:n ~fn_id:Task.Fn.fetch_params ~fn_par:(Time.us us) ()

let make_cluster ?(param_size = 0) () =
  let cluster =
    Cluster.create
      { Cluster.default_config with workers = 2; executors_per_worker = 2; clients = 1 }
  in
  (* Reconfigure the client's parameter store size via a fresh client is
     not possible post-hoc; instead park the size in the config by
     rebuilding when needed.  For simplicity the tests that need a size
     build their own client below. *)
  ignore param_size;
  Cluster.start cluster;
  cluster

let test_fetch_roundtrip_completes () =
  let cluster = make_cluster () in
  ignore (Client.submit_job (Cluster.client cluster 0) (List.init 10 (fetch_task ~us:100)));
  Cluster.run cluster ~until:(Time.ms 2);
  let drained = Cluster.run_until_drained cluster ~deadline:(Time.s 1) in
  let m = Cluster.metrics cluster in
  Alcotest.(check bool) "drained" true drained;
  Alcotest.(check int) "all fetch tasks completed" 10 (Metrics.completed m)

let test_fetch_adds_client_roundtrip () =
  (* Compare scheduling->start latency of a plain task vs a fetch task:
     the fetch task pays one extra executor<->client round trip. *)
  let run_kind fn_id =
    let cluster = make_cluster () in
    let started_at = ref None in
    Metrics.observe (Cluster.metrics cluster) (function
      | Metrics.Started _ when !started_at = None ->
        started_at := Some (Engine.now (Cluster.engine cluster))
      | _ -> ());
    ignore
      (Client.submit_job (Cluster.client cluster 0)
         [ Task.make ~uid:0 ~jid:0 ~tid:0 ~fn_id ~fn_par:(Time.us 50) () ]);
    ignore (Cluster.run_until_drained cluster ~deadline:(Time.s 1));
    Option.get !started_at
  in
  let plain = run_kind Task.Fn.busy_loop in
  let fetch = run_kind Task.Fn.fetch_params in
  (* Executor -> client -> executor is two host-to-host hops = 4
     host-to-switch latencies (~6 us + jitter). *)
  let extra = fetch - plain in
  Alcotest.(check bool) "fetch adds roughly one extra round trip" true
    (extra >= Time.us 5 && extra <= Time.us 12)

let test_param_size_adds_transfer_time () =
  (* A client serving 10 MB parameters at ~100 Gbps adds ~0.8 ms. *)
  let engine = Engine.create () in
  let rng = Rng.create ~seed:3 in
  let fabric =
    Fabric.create
      ~config:{ Fabric.default_config with host_to_switch = Time.us 1; jitter = 0 }
      engine rng
  in
  let metrics = Metrics.create engine in
  let client =
    Client.create
      ~config:
        { (Client.default_config ~host:5 ~uid:0) with param_size = 10_000_000 }
      ~fabric ~metrics ()
  in
  (* A stub switch that assigns the submitted task to executor 0. *)
  Fabric.register fabric Addr.Switch (fun env ->
      match env.Fabric.payload with
      | Message.Job_submission { client; tasks = task :: _; _ } ->
        Fabric.send fabric ~src:Addr.Switch ~dst:(Addr.Host 0)
          (Message.Task_assignment { task; client; port = 0 })
      | _ -> ());
  let started_at = ref None in
  Metrics.observe metrics (function
    | Metrics.Started _ -> started_at := Some (Engine.now engine)
    | _ -> ());
  ignore
    (Worker.create ~node:0 ~executors:1 ~fabric ~metrics
       ~make_config:(fun ~port ->
         {
           Executor.node = 0;
           port;
           rsrc = 0;
           noop_retry = Time.us 4;
           fn_model = Fn_model.default;
           scheduler = Addr.Switch;
           watchdog = None;
         })
       ());
  ignore (Client.submit_job client [ fetch_task ~us:10 0 ]);
  Engine.run ~until:(Time.ms 10) engine;
  match !started_at with
  | None -> Alcotest.fail "task never started"
  | Some t ->
    (* 10 MB * 0.08 ns/B = 800 us of transfer before execution. *)
    Alcotest.(check bool) "transfer time dominates" true (t >= Time.us 800)

let test_codec_roundtrip_param_messages () =
  let id : Task.id = { uid = 1; jid = 2; tid = 3 } in
  List.iter
    (fun msg ->
      match Codec.decode (Codec.encode msg) with
      | Ok decoded -> Alcotest.(check bool) "roundtrip" true (decoded = msg)
      | Error _ -> Alcotest.fail "decode failed")
    [
      Message.Param_fetch { task_id = id; node = 4; port = 7 };
      Message.Param_data { task_id = id; port = 7; size = 123_456 };
    ]

let suite =
  [
    Alcotest.test_case "fetch tasks complete end-to-end" `Quick
      test_fetch_roundtrip_completes;
    Alcotest.test_case "fetch adds one client round trip" `Quick
      test_fetch_adds_client_roundtrip;
    Alcotest.test_case "parameter size adds transfer time" `Quick
      test_param_size_adds_transfer_time;
    Alcotest.test_case "param message codec roundtrip" `Quick
      test_codec_roundtrip_param_messages;
  ]
