(* Pipeline-level tests of the Draconis switch program: job submission
   (including multi-task recirculation and full-queue bounces), pull
   retrieval, completion piggybacking, task swapping under the
   resource-aware and locality policies, and the priority multi-queue. *)

open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis

type harness = {
  engine : Engine.t;
  fabric : Message.t Fabric.t;
  pipeline : (Message.t, Switch_packet.t) Draconis_p4.Pipeline.t;
  program : Switch_program.t;
  inbox : (Addr.t, Message.t list ref) Hashtbl.t;
}

let make ?(policy = Policy.Fcfs) ?(capacity = 16) () =
  let engine = Engine.create () in
  let rng = Rng.create ~seed:21 in
  let fabric =
    Fabric.create
      ~config:{ Fabric.default_config with host_to_switch = Time.us 1; jitter = 0 }
      engine rng
  in
  let program =
    Switch_program.create ~engine ~metrics:(Metrics.create engine) ~policy
      ~queue_capacity:capacity ()
  in
  let pipeline =
    Draconis_p4.Pipeline.attach fabric
      ~wrap:(fun msg -> Switch_packet.Wire msg)
      (Switch_program.program program)
  in
  let inbox = Hashtbl.create 8 in
  { engine; fabric; pipeline; program; inbox }

let listen h addr =
  let box = ref [] in
  Hashtbl.replace h.inbox addr box;
  Fabric.register h.fabric addr (fun env -> box := env.Fabric.payload :: !box);
  box

let task ?(tprops = Task.No_props) n =
  Task.make ~uid:0 ~jid:0 ~tid:n ~tprops ~fn_id:Task.Fn.busy_loop ~fn_par:1000 ()

let submit h ~client tasks =
  Fabric.send h.fabric ~src:client ~dst:Addr.Switch
    (Message.Job_submission { client; uid = 0; jid = 0; tasks })

let request h ~node ~port ?(rsrc = 0xFFFFFFFF) ?(rtrv_prio = 1) () =
  Fabric.send h.fabric ~src:(Addr.Host node) ~dst:Addr.Switch
    (Message.Task_request
       {
         info = { exec_addr = Addr.Host node; exec_port = port; exec_rsrc = rsrc; exec_node = node };
         rtrv_prio;
       })

(* -- FCFS basics ------------------------------------------------------------- *)

let test_submission_ack_and_retrieval () =
  let h = make () in
  let client_box = listen h (Addr.Host 10) in
  let worker_box = listen h (Addr.Host 0) in
  submit h ~client:(Addr.Host 10) [ task 1; task 2 ];
  Engine.run h.engine;
  (* Multi-task packet: one recirculation for the second task. *)
  Alcotest.(check int) "recirculated once" 1
    (Draconis_p4.Pipeline.recirculated h.pipeline);
  (match !client_box with
  | [ Message.Job_ack _ ] -> ()
  | _ -> Alcotest.fail "expected a single job_ack");
  Alcotest.(check int) "two tasks queued" 2 (Switch_program.total_occupancy h.program);
  request h ~node:0 ~port:3 ();
  Engine.run h.engine;
  (match !worker_box with
  | [ Message.Task_assignment { task = t; client; port } ] ->
    Alcotest.(check int) "FCFS head" 1 t.Task.id.tid;
    Alcotest.(check int) "port routed" 3 port;
    Alcotest.(check bool) "client info preserved" true (Addr.equal client (Addr.Host 10))
  | _ -> Alcotest.fail "expected one assignment");
  Alcotest.(check int) "assignments" 1 (Switch_program.assignments h.program)

let test_empty_queue_noop () =
  let h = make () in
  let worker_box = listen h (Addr.Host 0) in
  request h ~node:0 ~port:0 ();
  Engine.run h.engine;
  (match !worker_box with
  | [ Message.Noop_assignment { port = 0 } ] -> ()
  | _ -> Alcotest.fail "expected a no-op");
  Alcotest.(check int) "noop counter" 1 (Switch_program.noops h.program)

let test_full_queue_bounce () =
  let h = make ~capacity:2 () in
  let client_box = listen h (Addr.Host 10) in
  submit h ~client:(Addr.Host 10) [ task 1; task 2; task 3 ];
  Engine.run h.engine;
  let bounced =
    List.find_map
      (function Message.Queue_full { tasks; _ } -> Some tasks | _ -> None)
      !client_box
  in
  (match bounced with
  | Some [ t ] -> Alcotest.(check int) "third task bounced" 3 t.Task.id.tid
  | _ -> Alcotest.fail "expected queue_full with one task");
  Alcotest.(check int) "rejected counter" 1 (Switch_program.rejected_tasks h.program);
  (* The repair must leave the queue usable: drain and refill. *)
  let worker_box = listen h (Addr.Host 0) in
  request h ~node:0 ~port:0 ();
  Engine.run h.engine;
  (match !worker_box with
  | [ Message.Task_assignment { task = t; _ } ] ->
    Alcotest.(check int) "first task intact" 1 t.Task.id.tid
  | _ -> Alcotest.fail "expected assignment after repair");
  submit h ~client:(Addr.Host 10) [ task 4 ];
  Engine.run h.engine;
  Alcotest.(check int) "space reused" 2 (Switch_program.total_occupancy h.program)

let test_completion_piggyback () =
  let h = make () in
  let client_box = listen h (Addr.Host 10) in
  let worker_box = listen h (Addr.Host 0) in
  submit h ~client:(Addr.Host 10) [ task 1 ];
  Engine.run h.engine;
  (* Executor reports completion of some earlier task; the switch must
     forward it to the client AND serve the piggybacked request. *)
  Fabric.send h.fabric ~src:(Addr.Host 0) ~dst:Addr.Switch
    (Message.Task_completion
       {
         task_id = { uid = 0; jid = 0; tid = 99 };
         client = Addr.Host 10;
         info = { exec_addr = Addr.Host 0; exec_port = 1; exec_rsrc = 0; exec_node = 0 };
         rtrv_prio = 1;
       });
  Engine.run h.engine;
  Alcotest.(check bool) "completion forwarded" true
    (List.exists (function Message.Task_completion _ -> true | _ -> false) !client_box);
  (match
     List.find_opt (function Message.Task_assignment _ -> true | _ -> false) !worker_box
   with
  | Some (Message.Task_assignment { task = t; port; _ }) ->
    Alcotest.(check int) "piggyback served" 1 t.Task.id.tid;
    Alcotest.(check int) "to the completing executor" 1 port
  | _ -> Alcotest.fail "expected piggybacked assignment")

let test_retrieve_repair_after_empty_poll () =
  let h = make () in
  let worker_box = listen h (Addr.Host 0) in
  (* Poll the empty queue: pointer overruns. *)
  request h ~node:0 ~port:0 ();
  Engine.run h.engine;
  (* A submission now triggers the lazy repair via recirculation; after
     it lands, the task must be retrievable. *)
  submit h ~client:(Addr.Host 10) [ task 7 ];
  Engine.run h.engine;
  Alcotest.(check bool) "repair recirculated" true
    (Switch_program.repairs_launched h.program >= 1);
  request h ~node:0 ~port:0 ();
  Engine.run h.engine;
  (match
     List.find_opt (function Message.Task_assignment _ -> true | _ -> false) !worker_box
   with
  | Some (Message.Task_assignment { task = t; _ }) ->
    Alcotest.(check int) "task recovered after repair" 7 t.Task.id.tid
  | _ -> Alcotest.fail "task lost after empty-poll repair")

(* -- resource-aware swapping (§5.2) ------------------------------------------- *)

let test_resource_swap () =
  let h = make ~policy:(Policy.Resource_aware { max_swaps = 8 }) () in
  let gpu_box = listen h (Addr.Host 1) in
  let plain_box = listen h (Addr.Host 0) in
  (* Queue: [needs-GPU; plain]. *)
  submit h ~client:(Addr.Host 10)
    [ task ~tprops:(Task.Resources 2) 1; task ~tprops:(Task.Resources 0) 2 ];
  Engine.run h.engine;
  (* A GPU-less executor pulls: must get task 2 via swapping. *)
  request h ~node:0 ~port:0 ~rsrc:1 ();
  Engine.run h.engine;
  (match
     List.find_opt (function Message.Task_assignment _ -> true | _ -> false) !plain_box
   with
  | Some (Message.Task_assignment { task = t; _ }) ->
    Alcotest.(check int) "swapped past GPU task" 2 t.Task.id.tid
  | _ -> Alcotest.fail "plain executor should get the plain task");
  Alcotest.(check bool) "swap happened" true (Switch_program.swaps h.program >= 1);
  (* The GPU task is still queued and goes to a GPU executor. *)
  request h ~node:1 ~port:0 ~rsrc:3 ();
  Engine.run h.engine;
  (match
     List.find_opt (function Message.Task_assignment _ -> true | _ -> false) !gpu_box
   with
  | Some (Message.Task_assignment { task = t; _ }) ->
    Alcotest.(check int) "GPU task preserved" 1 t.Task.id.tid
  | _ -> Alcotest.fail "GPU task lost in swap")

let test_resource_no_eligible_noop_and_reinsert () =
  let h = make ~policy:(Policy.Resource_aware { max_swaps = 8 }) () in
  let plain_box = listen h (Addr.Host 0) in
  submit h ~client:(Addr.Host 10) [ task ~tprops:(Task.Resources 2) 1 ];
  Engine.run h.engine;
  (* No eligible task for this executor: no-op, task re-inserted. *)
  request h ~node:0 ~port:0 ~rsrc:1 ();
  Engine.run h.engine;
  (match
     List.find_opt (function Message.Noop_assignment _ -> true | _ -> false) !plain_box
   with
  | Some _ -> ()
  | None -> Alcotest.fail "expected a no-op");
  Alcotest.(check int) "task re-inserted" 1 (Switch_program.total_occupancy h.program);
  Alcotest.(check bool) "resubmission counted" true
    (Switch_program.resubmissions h.program >= 1)

(* -- locality (§5.3) ------------------------------------------------------------ *)

let test_locality_skip_counter_escalation () =
  let topology = Topology.create ~nodes:4 ~racks:2 in
  let h =
    make
      ~policy:(Policy.Locality_aware { rack_start_limit = 2; global_start_limit = 4; topology })
      ()
  in
  let local_box = listen h (Addr.Host 3) in
  let remote_box = listen h (Addr.Host 0) in
  (* Task data lives on node 3 (rack 1). Node 0 is in rack 0. *)
  submit h ~client:(Addr.Host 10) [ task ~tprops:(Task.Locality [ 3 ]) 1 ];
  Engine.run h.engine;
  (* First two remote pulls are refused (skip counter below limits). *)
  request h ~node:0 ~port:0 ();
  Engine.run h.engine;
  request h ~node:0 ~port:0 ();
  Engine.run h.engine;
  Alcotest.(check bool) "remote refused initially" true
    (List.for_all (function Message.Noop_assignment _ -> true | _ -> false) !remote_box);
  (* A data-local pull gets it immediately. *)
  request h ~node:3 ~port:0 ();
  Engine.run h.engine;
  (match
     List.find_opt (function Message.Task_assignment _ -> true | _ -> false) !local_box
   with
  | Some _ -> ()
  | None -> Alcotest.fail "data-local executor should win the task")

let test_locality_global_limit_releases_task () =
  let topology = Topology.create ~nodes:4 ~racks:2 in
  let h =
    make
      ~policy:(Policy.Locality_aware { rack_start_limit = 1; global_start_limit = 2; topology })
      ()
  in
  let remote_box = listen h (Addr.Host 0) in
  submit h ~client:(Addr.Host 10) [ task ~tprops:(Task.Locality [ 3 ]) 1 ];
  Engine.run h.engine;
  (* Keep pulling from a remote node; after the skip counter passes the
     global limit the task must be released to it. *)
  let assigned = ref false in
  for _ = 1 to 6 do
    if not !assigned then begin
      request h ~node:0 ~port:0 ();
      Engine.run h.engine;
      if List.exists (function Message.Task_assignment _ -> true | _ -> false) !remote_box
      then assigned := true
    end
  done;
  Alcotest.(check bool) "task eventually scheduled anywhere" true !assigned

(* -- priority (§6.1) -------------------------------------------------------------- *)

let test_priority_ordering () =
  let h = make ~policy:(Policy.Priority { levels = 4 }) () in
  let box = listen h (Addr.Host 0) in
  submit h ~client:(Addr.Host 10)
    [ task ~tprops:(Task.Priority 3) 31; task ~tprops:(Task.Priority 1) 11;
      task ~tprops:(Task.Priority 4) 41; task ~tprops:(Task.Priority 1) 12 ];
  Engine.run h.engine;
  let pull () =
    request h ~node:0 ~port:0 ();
    Engine.run h.engine;
    match !box with
    | Message.Task_assignment { task = t; _ } :: _ -> t.Task.id.tid
    | _ -> Alcotest.fail "expected assignment"
  in
  (* Highest priority first; FCFS within a level. *)
  Alcotest.(check int) "prio 1 first" 11 (pull ());
  Alcotest.(check int) "prio 1 FCFS" 12 (pull ());
  Alcotest.(check int) "then prio 3" 31 (pull ());
  Alcotest.(check int) "then prio 4" 41 (pull ());
  (* Lower-priority retrieval recirculates through empty levels. *)
  Alcotest.(check bool) "recirculation used for level scan" true
    (Draconis_p4.Pipeline.recirculated h.pipeline > 3)

let test_priority_empty_noop () =
  let h = make ~policy:(Policy.Priority { levels = 4 }) () in
  let box = listen h (Addr.Host 0) in
  request h ~node:0 ~port:0 ();
  Engine.run h.engine;
  match !box with
  | [ Message.Noop_assignment _ ] -> ()
  | _ -> Alcotest.fail "all levels empty must answer no-op"

let test_priority_clamps_out_of_range () =
  let h = make ~policy:(Policy.Priority { levels = 2 }) () in
  let box = listen h (Addr.Host 0) in
  submit h ~client:(Addr.Host 10) [ task ~tprops:(Task.Priority 9) 1 ];
  Engine.run h.engine;
  request h ~node:0 ~port:0 ();
  Engine.run h.engine;
  match
    List.find_opt (function Message.Task_assignment _ -> true | _ -> false) !box
  with
  | Some _ -> ()
  | None -> Alcotest.fail "out-of-range priority must land in the lowest queue"

let suite =
  [
    Alcotest.test_case "submission, ack, retrieval" `Quick test_submission_ack_and_retrieval;
    Alcotest.test_case "empty queue answers no-op" `Quick test_empty_queue_noop;
    Alcotest.test_case "full queue bounces and repairs" `Quick test_full_queue_bounce;
    Alcotest.test_case "completion piggybacks a request" `Quick test_completion_piggyback;
    Alcotest.test_case "retrieve repair after empty poll" `Quick
      test_retrieve_repair_after_empty_poll;
    Alcotest.test_case "resource-aware swapping" `Quick test_resource_swap;
    Alcotest.test_case "resource: no eligible task" `Quick
      test_resource_no_eligible_noop_and_reinsert;
    Alcotest.test_case "locality skip-counter escalation" `Quick
      test_locality_skip_counter_escalation;
    Alcotest.test_case "locality global limit releases" `Quick
      test_locality_global_limit_releases_task;
    Alcotest.test_case "priority ordering across levels" `Quick test_priority_ordering;
    Alcotest.test_case "priority empty no-op" `Quick test_priority_empty_noop;
    Alcotest.test_case "priority clamps out-of-range" `Quick
      test_priority_clamps_out_of_range;
  ]
