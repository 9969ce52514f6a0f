open Draconis_sim
open Draconis_net
open Draconis_proto
open Draconis_p4
open Draconis

type bug = Skip_stamp_check | Drop_retrieve_repair

let bug_to_string = function
  | Skip_stamp_check -> "skip-stamp-check"
  | Drop_retrieve_repair -> "drop-retrieve-repair"

let bug_of_string = function
  | "skip-stamp-check" -> Skip_stamp_check
  | "drop-retrieve-repair" -> Drop_retrieve_repair
  | s ->
    invalid_arg
      (Printf.sprintf
         "Exec.bug_of_string: unknown bug %S (want skip-stamp-check|drop-retrieve-repair)"
         s)

(* Generous recirculation budget: the rig must not lose repair/swap
   packets to loop overflow, or conservation violations would be rig
   artifacts rather than protocol bugs. *)
let recirc_queue_limit = 4096

(* A clean execution drains in at most ~33 engine events per op, so a
   run still busy after 1000 per op is wedged: it stops there and fails
   the progress invariant. *)
let event_budget (schedule : Schedule.t) = 1_000 * (List.length schedule.ops + 1)

let policy_of = function
  | Schedule.Fcfs -> Policy.Fcfs
  | Schedule.Prio levels -> Policy.Priority { levels }
  | Schedule.Rsrc max_swaps -> Policy.Resource_aware { max_swaps }
  | Schedule.Edf default_deadline -> Policy.Edf { default_deadline }
  | Schedule.Wfq (quantum, weights) ->
    Policy.Wfq { quantum; weights = Array.of_list weights }
  | Schedule.Aging (levels, quantum) -> Policy.Aging_priority { levels; quantum }

let tprops_of = function
  | Op.P_none -> Task.No_props
  | Op.P_prio p -> Task.Priority p
  | Op.P_rsrc r -> Task.Resources r
  | Op.P_deadline d -> Task.Deadline d
  | Op.P_tenant t -> Task.Tenant t

(* Resource bitmaps the executors advertise, round-robin by index; the
   generator draws task requirements from the same set. *)
let exec_rsrc_of i = [| 0x1; 0x2; 0x3 |].(i mod 3)

let executor_addr i = Addr.Host (100 + i)

let info_of i =
  {
    Message.exec_addr = executor_addr i;
    exec_port = i;
    exec_rsrc = exec_rsrc_of i;
    exec_node = i;
  }

(* FNV-1a over every register cell: a cheap structural fingerprint of
   the drained switch state, compared across replicated executions. *)
let fingerprint_registers regs =
  let h = ref 0xcbf29ce484222325L in
  let mix v =
    h := Int64.mul (Int64.logxor !h (Int64.of_int v)) 0x100000001b3L
  in
  List.iter
    (fun reg ->
      for i = 0 to Draconis_p4.Register.size reg - 1 do
        mix (Draconis_p4.Register.peek reg i)
      done)
    regs;
  !h

(* The rig as a fault target: loss and cut windows on the fabric, and
   straggler edges on the engine the executors live on, writing the
   per-executor slowdown their service times read.  Executors cannot
   crash and the switch never fails over (the schedule grammar has no
   such ops). *)
let fuzz_target ~engine ~node_engine ~fabric ~executors ~slowdown =
  {
    Draconis_fault.Target.name = "fuzz-rig";
    engine;
    node_engine = (fun _ -> node_engine);
    nodes = executors;
    hosts = 100 + executors;
    clients = [||];
    set_windows = Fabric.set_windows fabric;
    failover = (fun () -> 0);
    crash_node = (fun _ -> invalid_arg "fuzz rig: executors cannot crash");
    restart_node = (fun _ -> ());
    set_slowdown = (fun node factor -> slowdown.(node) <- factor);
    supports_crash = false;
    supports_straggler = true;
  }

let plan_of_ops ops =
  Draconis_fault.Plan.create
    (List.filter_map
       (fun op ->
         match op with
         | Op.Loss { at; duration; loss } ->
           Some
             { Draconis_fault.Plan.at; event = Loss_burst { duration; loss } }
         | Op.Partition { at; hosts; duration } ->
           Some { Draconis_fault.Plan.at; event = Partition { hosts; duration } }
         | Op.Straggler { at; executor; factor; duration } ->
           Some
             {
               Draconis_fault.Plan.at;
               event = Straggler { node = executor; factor; duration };
             }
         | Op.Submit _ | Op.Request _ -> None)
       ops)

(* -- pieces shared by the single-engine and the sharded rig --------------- *)

(* The rig's observer: the switch program's milestones that the
   checker replays go to the event log, each enqueue with the occupancy
   its admission stamped. *)
let observer record ~int_occ (milestone : Metrics.milestone) =
  match milestone with
  | Enqueued _ -> record (Checker.Switch { milestone; int_occ = int_occ () })
  | Dequeued _ | Swapped _ | Assigned _ | Rejected _ | Noop | Repair_flagged _
  | Recirculated _ | Ranked _ | Pop_scan_started ->
    record (Checker.Switch { milestone; int_occ = None })
  | Submitted _ | Sent _ | Resubmitted _ | Arrived _ | Swap_started _ | Spun _
  | Started _ | Finished _ | Completed _ ->
    ()

(* Pointer wraparound: start both pointers of every level just below
   the wrap modulus so the schedule crosses the boundary early
   (Schedule.validate rejects wrap_offset for pointer-free PIFOs). *)
let set_wrap_offset program (schedule : Schedule.t) =
  match schedule.wrap_offset with
  | None -> ()
  | Some offset ->
    for level = 0 to Policy.queue_count (policy_of schedule.policy) - 1 do
      let q = Switch_program.queue program level in
      let wrap = Circular_queue.wrap_modulus q in
      let p = (wrap - (offset mod wrap)) mod wrap in
      Circular_queue.unsafe_set_pointers_for_test q ~add:p ~retrieve:p
    done

(* The rig's switch: the program behind its own pipeline on [fabric],
   noting on metrics the rig observes.  The enqueue note is made inside
   the admitting traversal, just after the queue wrote the occupancy it
   admitted against into the pipeline's packet context; reading it
   there pairs the event with the very stamp the switch took ([None]
   where the traversal stamped none, e.g. a PIFO probe continuation). *)
let attach_switch ~record ~engine ~fabric (schedule : Schedule.t) =
  let pipeline = ref None in
  let int_occ () =
    match !pipeline with
    | None -> None
    | Some p ->
      let occupancy = (Pipeline.context p).Packet_ctx.telemetry.occupancy in
      if occupancy >= 0 then Some occupancy else None
  in
  let metrics = Metrics.create engine in
  Metrics.observe metrics (observer record ~int_occ);
  let program =
    Switch_program.create ~engine ~metrics ~policy:(policy_of schedule.policy)
      ~queue_capacity:schedule.capacity ()
  in
  let p =
    Pipeline.attach
      ~config:{ Pipeline.default_config with recirc_queue_limit }
      fabric
      ~wrap:(fun m -> Switch_packet.Wire m)
      (Switch_program.program program)
  in
  pipeline := Some p;
  set_wrap_offset program schedule;
  (program, p)

(* Clients: sinks for acks, bounces, and completions.  Executors: all
   record deliveries; odd-indexed ones are "pulling" executors that
   complete the task after its service time and piggyback the next
   request on the completion (§3.1), until a no-op tells them the
   queues are dry.  Even-indexed executors absorb the task silently, so
   drained runs can still end with queued work.  [engine_of]/[fabric_of]
   pick the engine and fabric instance a host lives on (the shared ones
   for the single-engine rig, the owning LP's for the sharded rig);
   [slowdown.(e)] is executor [e]'s current straggler factor. *)
let wire_hosts ~record ~(schedule : Schedule.t) ~register ~engine_of ~fabric_of
    ~slowdown =
  for c = 0 to schedule.clients - 1 do
    register (Addr.Host c) (fun env ->
        match env.Fabric.payload with
        | Message.Queue_full { tasks; _ } ->
          List.iter (fun (task : Task.t) -> record (Checker.Returned { id = task.id })) tasks
        | Message.Task_completion { task_id; _ } ->
          record (Checker.Completed { id = task_id })
        | _ -> ())
  done;
  for e = 0 to schedule.executors - 1 do
    let addr = executor_addr e in
    register addr (fun env ->
        match env.Fabric.payload with
        | Message.Task_assignment { task; client; _ } ->
          record (Checker.Delivered { id = task.id; executor = e });
          if e mod 2 = 1 then begin
            let engine = engine_of addr in
            let service =
              max 1
                (int_of_float (float_of_int schedule.service *. slowdown.(e)))
            in
            ignore @@ Engine.schedule engine ~after:service (fun () ->
                Fabric.send (fabric_of addr) ~src:addr ~dst:Addr.Switch
                  (Message.Task_completion
                     { task_id = task.id; client; info = info_of e; rtrv_prio = 1 }))
          end
        | _ -> ())
  done

(* Workload ops become events on the owning host's engine. *)
let inject_workload ~record ~(schedule : Schedule.t) ~engine_of ~fabric_of =
  List.iter
    (fun op ->
      match op with
      | Op.Submit { at; client; uid; jid; count; prop } ->
        let client = client mod schedule.clients in
        let addr = Addr.Host client in
        let tasks =
          List.init count (fun tid ->
              Task.make ~uid ~jid ~tid ~tprops:(tprops_of prop) ~fn_id:Task.Fn.noop
                ~fn_par:0 ())
        in
        ignore @@ Engine.schedule_at (engine_of addr) ~at (fun () ->
            List.iter (fun (t : Task.t) -> record (Checker.Submitted { id = t.id })) tasks;
            Fabric.send (fabric_of addr) ~src:addr ~dst:Addr.Switch
              (Message.Job_submission { client = addr; uid; jid; tasks }))
      | Op.Request { at; executor; prio } ->
        let executor = executor mod schedule.executors in
        let addr = executor_addr executor in
        ignore @@ Engine.schedule_at (engine_of addr) ~at (fun () ->
            Fabric.send (fabric_of addr) ~src:addr ~dst:Addr.Switch
              (Message.Task_request { info = info_of executor; rtrv_prio = prio }))
      | Op.Loss _ | Op.Partition _ | Op.Straggler _ -> ())
    schedule.ops

(* Drained end state.  PIFO backends have no pointers or repair flags;
   their walk is the rank store in packed (pop) order, and the
   occupancy register plays the pointer-occupancy role (a claim that
   leaked the occupancy gate fails pointer convergence). *)
let collect_levels program (schedule : Schedule.t) =
  match Switch_program.pifo program with
  | Some pifo ->
    let walk =
      List.map
        (fun words -> (Entry.of_words words).Entry.task.id)
        (Draconis_pifo.Pifo.peek_payloads pifo)
    in
    [|
      {
        Checker.add_ptr = 0;
        retrieve_ptr = 0;
        add_flag = false;
        retrieve_flag = false;
        pointer_occupancy = Draconis_pifo.Pifo.occupancy pifo;
        walk;
        stamped = List.length walk;
      };
    |]
  | None ->
    Array.init
      (Policy.queue_count (policy_of schedule.policy))
      (fun level ->
        let q = Switch_program.queue program level in
        let add_ptr = Circular_queue.peek_add_ptr q in
        let retrieve_ptr = Circular_queue.peek_retrieve_ptr q in
        let d = Circular_queue.distance q ~ahead:add_ptr ~behind:retrieve_ptr in
        let wrap = Circular_queue.wrap_modulus q in
        let span = if d > wrap / 2 then 0 else min d (4 * schedule.capacity) in
        let walk = ref [] in
        let p = ref retrieve_ptr in
        for _ = 1 to span do
          (match Circular_queue.peek_entry q ~index:!p with
          | Some (entry : Entry.t) -> walk := entry.task.id :: !walk
          | None -> ());
          p := Circular_queue.next_index q !p
        done;
        {
          Checker.add_ptr;
          retrieve_ptr;
          add_flag = Circular_queue.peek_add_repair_flag q;
          retrieve_flag = Circular_queue.peek_retrieve_repair_flag q;
          pointer_occupancy = Circular_queue.occupancy q;
          walk = List.rev !walk;
          stamped = Circular_queue.stamped_slots q;
        })

(* -- the single-engine rig ------------------------------------------------ *)

let run ?bug (schedule : Schedule.t) =
  Schedule.validate schedule;
  let events = ref [] in
  let record ev = events := ev :: !events in
  let engine = Engine.create () in
  let rng = Rng.create ~seed:schedule.seed in
  let fabric = Fabric.create engine rng in
  let program, pipeline = attach_switch ~record ~engine ~fabric schedule in
  let slowdown = Array.make schedule.executors 1.0 in
  wire_hosts ~record ~schedule ~register:(Fabric.register fabric)
    ~engine_of:(fun _ -> engine)
    ~fabric_of:(fun _ -> fabric)
    ~slowdown;
  (* Workload ops become engine events; fault ops become a fault plan. *)
  inject_workload ~record ~schedule
    ~engine_of:(fun _ -> engine)
    ~fabric_of:(fun _ -> fabric);
  ignore
    (Draconis_fault.Injector.arm (plan_of_ops schedule.ops)
       (fuzz_target ~engine ~node_engine:engine ~fabric ~executors:schedule.executors
          ~slowdown));
  (* Scoped bug injection: flip the queue's hidden kill switch for this
     run only. *)
  let set_bug v =
    match bug with
    | None -> ()
    | Some Skip_stamp_check -> Circular_queue.debug_skip_stamp_check := v
    | Some Drop_retrieve_repair -> Circular_queue.debug_drop_retrieve_repair := v
  in
  let access_violation = ref None in
  let budget = event_budget schedule in
  set_bug true;
  Fun.protect
    ~finally:(fun () -> set_bug false)
    (fun () ->
      try Engine.run ~max_events:budget engine
      with Draconis_p4.Packet_ctx.Access_violation name ->
        access_violation := Some name);
  {
    Checker.events = Array.of_list (List.rev !events);
    out_of_budget =
      (if Option.is_none !access_violation && Engine.pending engine > 0 then Some budget
       else None);
    levels = collect_levels program schedule;
    fabric_lost = Fabric.lost fabric + Fabric.partition_dropped fabric;
    recirc_dropped = Pipeline.recirc_dropped pipeline;
    access_violation = !access_violation;
    fingerprint = fingerprint_registers (Switch_program.registers program);
  }

(* -- the sharded rig ------------------------------------------------------ *)

(* Time backstop for [Sync.run]: the barrier loop has no event budget,
   so a wedged run must be cut off by the clock instead.  A healthy
   schedule drains within microseconds of its last op; anything still
   live this far past it is a livelock, and the truncated logs of the
   two partitionings stay comparable because the window sequence is
   partition-independent. *)
let drain_slack = Time.ms 50

let sharded_horizon (schedule : Schedule.t) =
  let op_end acc op =
    max acc
      (match op with
      | Op.Submit { at; _ } | Op.Request { at; _ } -> at
      | Op.Loss { at; duration; _ }
      | Op.Partition { at; duration; _ }
      | Op.Straggler { at; duration; _ } ->
        at + duration)
  in
  List.fold_left op_end 0 schedule.Schedule.ops + drain_slack

let run_sharded ~shards (schedule : Schedule.t) =
  if shards < 1 || shards > 2 then
    invalid_arg
      (Printf.sprintf
         "Exec.run_sharded: %d shards (want 1 — every entity on one LP — or 2 \
          — switch LP + host LP)"
         shards);
  Schedule.validate schedule;
  let events = ref [] in
  let record ev = events := ev :: !events in
  let lps = Array.init shards (fun id -> Lp.create ~id ~seed:schedule.seed ()) in
  let sync = Sync.create ~lookahead:(Fabric.lookahead Fabric.default_config) lps in
  (* LP 0 owns the switch; with two shards every host (clients at
     [Host 0..], executors at [Host 100..]) moves to LP 1, so all
     client/executor <-> switch traffic crosses the LP boundary through
     stamped mailboxes. *)
  let host_lp = shards - 1 in
  let instances =
    Fabric.router ~lps ~switch_lp:0
      ~lp_of_host:(fun _ -> host_lp)
      ~hosts:(100 + schedule.executors) ~seed:schedule.seed ()
  in
  let switch_fabric = instances.(0) in
  let host_fabric = instances.(host_lp) in
  let host_engine = Lp.engine lps.(host_lp) in
  let program, pipeline =
    attach_switch ~record ~engine:(Lp.engine lps.(0)) ~fabric:switch_fabric schedule
  in
  let slowdown = Array.make schedule.executors 1.0 in
  wire_hosts ~record ~schedule ~register:(Fabric.register host_fabric)
    ~engine_of:(fun _ -> host_engine)
    ~fabric_of:(fun _ -> host_fabric)
    ~slowdown;
  inject_workload ~record ~schedule
    ~engine_of:(fun _ -> host_engine)
    ~fabric_of:(fun _ -> host_fabric);
  (* The same plan as the single-engine rig: windows on the shared
     router context, straggler edges on the executors' LP. *)
  ignore
    (Draconis_fault.Injector.arm (plan_of_ops schedule.ops)
       (fuzz_target ~engine:(Lp.engine lps.(0)) ~node_engine:host_engine
          ~fabric:switch_fabric ~executors:schedule.executors ~slowdown));
  let access_violation = ref None in
  (try Sync.run ~until:(sharded_horizon schedule) sync
   with Draconis_p4.Packet_ctx.Access_violation name ->
     access_violation := Some name);
  {
    Checker.events = Array.of_list (List.rev !events);
    levels = collect_levels program schedule;
    fabric_lost =
      Array.fold_left
        (fun acc f -> acc + Fabric.lost f + Fabric.partition_dropped f)
        0 instances;
    recirc_dropped = Pipeline.recirc_dropped pipeline;
    access_violation = !access_violation;
    fingerprint = fingerprint_registers (Switch_program.registers program);
    out_of_budget = None;
  }

(* One schedule, executed twice: determinism makes the second run free
   insurance, and it feeds the replication-consistency invariant.  With
   [sharded] the schedule additionally runs through the LP data path
   under both partitionings (everything on one LP, then switch/hosts
   split), feeding the sharded-consistency invariant.  The sharded legs
   only run bug-free: the injected-bug self-test belongs to the
   single-engine rig, whose event budget bounds a wedged queue. *)
let run_checked ?bug ?(sharded = false) schedule =
  let first = run ?bug schedule in
  let twin = run ?bug schedule in
  let pair =
    if sharded && bug = None then
      Some (run_sharded ~shards:1 schedule, run_sharded ~shards:2 schedule)
    else None
  in
  Checker.check ~twin ?sharded:pair schedule first
