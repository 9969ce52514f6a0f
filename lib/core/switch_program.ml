open Draconis_sim
open Draconis_p4
open Draconis_pifo
open Draconis_proto
module Obs = Draconis_obs

(* The queue substrate behind the program: the paper's circular queues,
   or a rank store for the PIFO-backed disciplines.  [vft] is WFQ's
   per-tenant virtual-finish-time register. *)
type backend =
  | Queues of Circular_queue.t array
  | Rank_store of { pifo : Pifo.t; vft : Register.t option }

(* The deployment's counters, one per fact: a fail-over [standby] starts
   from a copy of its predecessor's. *)
type counts = {
  mutable assignments : int;
  mutable noops : int;
  mutable rejected_tasks : int;
  mutable swaps : int;
  mutable swap_exchanges : int;
  mutable resubmissions : int;
  mutable repairs_launched : int;
  mutable recirculations : int;
  retired_renumbers : int;  (* by the dead programs' rank stores *)
}

type t = {
  engine : Engine.t;
  policy : Policy.t;
  queue_capacity : int;
  backend : backend;
  metrics : Metrics.t;
  (* Each executor's no-op reply, indexed by node then port, built on
     its first use: outputs are immutable, and an idle executor polls
     every few microseconds. *)
  mutable noop_replies : (Message.t, Switch_packet.t) Pipeline.output list array array;
  counts : counts;
}

(* An in-switch PIFO cannot be deep: every pop spends one recirculation
   per rank-store row, so rows — and with them capacity — must stay
   small (see lib/pifo).  [pifo_scan_width] banks keeps the store within
   the stage register budget while bounding a full scan to
   [capacity / scan_width] traversals. *)
let pifo_scan_width = 16
let pifo_capacity_limit = 4096
let max_pop_restarts = 3

let create ~engine ~metrics ~policy ~queue_capacity () =
  if queue_capacity < 1 then
    invalid_arg "Switch_program.create: queue_capacity must be >= 1";
  Policy.validate policy;
  let backend =
    match Policy.backend policy with
    | Policy.Circular ->
      let levels = Policy.queue_count policy in
      Queues
        (Array.init levels (fun level ->
             Circular_queue.create
               ~name:(Printf.sprintf "queue%d" level)
               ~capacity:queue_capacity ()))
    | Policy.Pifo ->
      if queue_capacity > pifo_capacity_limit then
        invalid_arg
          (Printf.sprintf
             "Switch_program.create: PIFO capacity %d exceeds %d (a pop \
              recirculates once per rank-store row; deep PIFOs are the point \
              of the circular queue)"
             queue_capacity pifo_capacity_limit);
      let scan_width = Int.min pifo_scan_width queue_capacity in
      if queue_capacity mod scan_width <> 0 then
        invalid_arg
          (Printf.sprintf
             "Switch_program.create: PIFO capacity %d must be a multiple of \
              the scan width %d"
             queue_capacity scan_width);
      let pifo =
        Pifo.create ~name:"pifo" ~capacity:queue_capacity ~scan_width
          ~word_count:Entry.word_count ()
      in
      let vft =
        match policy with
        | Policy.Wfq { weights; _ } ->
          Some (Register.create ~name:"pifo.vft" ~size:(Array.length weights) ())
        | _ -> None
      in
      Rank_store { pifo; vft }
  in
  {
    engine;
    policy;
    queue_capacity;
    backend;
    metrics;
    noop_replies = [||];
    counts =
      {
        assignments = 0;
        noops = 0;
        rejected_tasks = 0;
        swaps = 0;
        swap_exchanges = 0;
        resubmissions = 0;
        repairs_launched = 0;
        recirculations = 0;
        retired_renumbers = 0;
      };
  }

let policy t = t.policy

let queues_exn t =
  match t.backend with
  | Queues queues -> queues
  | Rank_store _ ->
    invalid_arg "Switch_program: PIFO-backed policy has no circular queue"

let queue t level =
  let queues = queues_exn t in
  if level < 0 || level >= Array.length queues then
    invalid_arg "Switch_program.queue: bad level";
  queues.(level)

let pifo t =
  match t.backend with Rank_store { pifo; _ } -> Some pifo | Queues _ -> None

let total_occupancy t =
  match t.backend with
  | Queues queues ->
    Array.fold_left (fun acc q -> acc + Circular_queue.occupancy q) 0 queues
  | Rank_store { pifo; _ } -> Pifo.occupancy pifo

let registers t =
  match t.backend with
  | Queues queues -> Array.to_list queues |> List.concat_map Circular_queue.registers
  | Rank_store { pifo; vft } ->
    Pifo.registers pifo @ (match vft with Some r -> [ r ] | None -> [])

let assignments t = t.counts.assignments
let noops t = t.counts.noops
let rejected_tasks t = t.counts.rejected_tasks
let swaps t = t.counts.swaps
let swap_exchanges t = t.counts.swap_exchanges
let resubmissions t = t.counts.resubmissions
let repairs_launched t = t.counts.repairs_launched
let recirculations t = t.counts.recirculations

let renumbers t =
  match t.backend with
  | Rank_store { pifo; _ } -> t.counts.retired_renumbers + Pifo.renumbers pifo
  | Queues _ -> t.counts.retired_renumbers

let standby t =
  let fresh =
    create ~engine:t.engine ~metrics:t.metrics ~policy:t.policy
      ~queue_capacity:t.queue_capacity ()
  in
  { fresh with counts = { t.counts with retired_renumbers = renumbers t } }

(* -- helpers -------------------------------------------------------------- *)

(* Every recirculation the program produces flows through here, so the
   note and the counter cannot drift apart. *)
let recirc t ~kind pkt =
  t.counts.recirculations <- t.counts.recirculations + 1;
  Metrics.note_recirculate t.metrics ~kind;
  Pipeline.Recirculate pkt

(* A pointer-repair flag tripped (§4.7) and its repair packet launched:
   the queue is in its degraded window until the packet lands. *)
let launch_repair t flag ~level ~kind pkt =
  t.counts.repairs_launched <- t.counts.repairs_launched + 1;
  Metrics.note_repair_flag t.metrics flag ~level;
  if Obs.Recorder.active () then
    Obs.Recorder.mark ~at:(Engine.now t.engine) ~track:"queue"
      (Printf.sprintf "repair-%s L%d" (Metrics.repair_flag_name flag) level);
  recirc t ~kind pkt

(* [tasks] ride a recirculation without landing. *)
let rec spin_all t = function
  | [] -> ()
  | (task : Task.t) :: rest ->
    Metrics.note_spin t.metrics task.id;
    spin_all t rest

(* Bounce [tasks] to [client]'s retry path in one Queue_full (§4.3). *)
let reject t ~client ~uid ~jid (tasks : Task.t list) =
  t.counts.rejected_tasks <- t.counts.rejected_tasks + List.length tasks;
  Metrics.note_reject t.metrics tasks;
  Pipeline.Emit (client, Message.Queue_full { uid; jid; tasks })

let grown a len fill =
  let b = Array.make (Int.max len (2 * Array.length a)) fill in
  Array.blit a 0 b 0 (Array.length a);
  b

(* The one-element output list answering [info]'s request with a no-op;
   the counter and the note run on every reply, the list is built once
   per executor port. *)
let noop_to t (info : Message.executor_info) =
  t.counts.noops <- t.counts.noops + 1;
  Metrics.note_noop t.metrics;
  let node = info.exec_node and port = info.exec_port in
  if node < 0 || port < 0 then
    invalid_arg "Switch_program: negative executor node or port";
  if node >= Array.length t.noop_replies then
    t.noop_replies <- grown t.noop_replies (node + 1) [||];
  let row = t.noop_replies.(node) in
  let row =
    if port < Array.length row then row
    else begin
      let row = grown row (port + 1) [] in
      t.noop_replies.(node) <- row;
      row
    end
  in
  match row.(port) with
  | Pipeline.Emit (dst, _) :: _ as reply when Draconis_net.Addr.equal dst info.exec_addr ->
    reply
  | _ ->
    let reply = [ Pipeline.Emit (info.exec_addr, Message.Noop_assignment { port }) ] in
    row.(port) <- reply;
    reply

let assign_to t (info : Message.executor_info) (entry : Entry.t) ~requested_at =
  t.counts.assignments <- t.counts.assignments + 1;
  Metrics.note_assign t.metrics entry.task.id ~node:info.exec_node ~requested_at;
  Pipeline.Emit
    ( info.exec_addr,
      Message.Task_assignment
        { task = entry.task; client = entry.client; port = info.exec_port } )

let retrieve_repair_output t ~level = function
  | None -> []
  | Some target ->
    [ launch_repair t Metrics.Retrieve_flag ~level ~kind:"repair-retrieve"
        (Switch_packet.Repair_retrieve { level; target });
    ]

(* A full circular queue bounces [tasks] and launches the repairs the
   rejected enqueue tripped, add pointer first. *)
let reject_enqueue t ~level ~add_repair ~retrieve_repair ~client ~uid ~jid tasks =
  let bounce = reject t ~client ~uid ~jid tasks in
  let repairs =
    match add_repair with
    | None -> []
    | Some target ->
      [ launch_repair t Metrics.Add_flag ~level ~kind:"repair-add"
          (Switch_packet.Repair_add { level; target });
      ]
  in
  repairs @ retrieve_repair_output t ~level retrieve_repair @ [ bounce ]

(* Enqueue one entry; shared by job submissions and task resubmission. *)
let enqueue_entry t ctx ~level (entry : Entry.t) =
  ctx.Packet_ctx.telemetry.level <- level;
  let outcome = Circular_queue.enqueue (queues_exn t).(level) ctx entry in
  (match outcome with
  | Circular_queue.Enqueued _ -> Metrics.note_enqueue t.metrics entry.task.id ~level
  | Circular_queue.Rejected _ -> ());
  outcome

(* -- job submission (§4.3) ------------------------------------------------ *)

let handle_submission t ctx ~client ~uid ~jid ~tasks =
  match tasks with
  | [] -> [ Pipeline.Emit (client, Message.Job_ack { uid; jid }) ]
  | task :: rest ->
    let level = Policy.queue_of_task t.policy task in
    let entry = Entry.make ~task ~client () in
    (match enqueue_entry t ctx ~level entry with
    | Circular_queue.Enqueued { index = _; retrieve_repair } ->
      let repairs = retrieve_repair_output t ~level retrieve_repair in
      let continuation =
        (* Remaining tasks ride a recirculation with a decremented
           #TASKS, exactly as the hardware reprocesses the packet. *)
        if rest = [] then [ Pipeline.Emit (client, Message.Job_ack { uid; jid }) ]
        else begin
          spin_all t rest;
          [ recirc t ~kind:"submission"
              (Switch_packet.Wire (Job_submission { client; uid; jid; tasks = rest }));
          ]
        end
      in
      repairs @ continuation
    | Circular_queue.Rejected { add_repair; retrieve_repair } ->
      (* Bounce every not-yet-enqueued task back to the client. *)
      reject_enqueue t ~level ~add_repair ~retrieve_repair ~client ~uid ~jid tasks)

(* -- task retrieval (§4.6, §5.1, §6.1) ------------------------------------ *)

(* A popped (or swapped-in) task that fails the policy check has been
   examined and skipped once more (§5.3). *)
let bump_skip (entry : Entry.t) = { entry with skip = entry.skip + 1 }

let start_swap t ~level ~(entry : Entry.t) ~index ~info ~requested_at =
  t.counts.swaps <- t.counts.swaps + 1;
  Metrics.note_swap_start t.metrics entry.task.id;
  let next = Circular_queue.next_index (queues_exn t).(level) index in
  recirc t ~kind:"swap"
    (Switch_packet.Swap
       {
         level;
         entry;
         swap_indx = next;
         info;
         pkt_retrieve_ptr = next;
         attempts = 0;
         requested_at;
       })

let handle_request t ctx (info : Message.executor_info) ~rtrv_prio ~requested_at =
  let queues = queues_exn t in
  let levels = Array.length queues in
  if rtrv_prio < 1 || rtrv_prio > levels then noop_to t info
  else begin
    let level = rtrv_prio - 1 in
    ctx.Packet_ctx.telemetry.level <- level;
    match Circular_queue.dequeue queues.(level) ctx with
    | Circular_queue.Repair_pending -> noop_to t info
    | Circular_queue.Empty ->
      (* Priority policy: scan the next-lower priority level via
         recirculation (§6.1); otherwise report no work. *)
      if rtrv_prio < levels then
        [ recirc t ~kind:"prio-request"
            (Switch_packet.Prio_request { info; rtrv_prio = rtrv_prio + 1; requested_at });
        ]
      else noop_to t info
    | Circular_queue.Dequeued { index; entry } ->
      Metrics.note_dequeue t.metrics entry.task.id ~level ~rank:(-1);
      if not (Policy.uses_swapping t.policy) then
        [ assign_to t info entry ~requested_at ]
      else begin
        let entry = bump_skip entry in
        if Policy.satisfies t.policy ~entry ~info then
          [ assign_to t info entry ~requested_at ]
        else [ start_swap t ~level ~entry ~index ~info ~requested_at ]
      end
  end

(* -- task swapping (§5.1) -------------------------------------------------- *)

let resubmit_and_noop t ~level ~(entry : Entry.t) ~info =
  t.counts.resubmissions <- t.counts.resubmissions + 1;
  Metrics.note_spin t.metrics entry.task.id;
  let noop = noop_to t info in
  recirc t ~kind:"resubmit" (Switch_packet.Resubmit { level; entry }) :: noop

let handle_swap t ctx ~level ~entry ~swap_indx ~info ~pkt_retrieve_ptr ~attempts
    ~requested_at =
  ctx.Packet_ctx.telemetry.level <- level;
  let q = (queues_exn t).(level) in
  let add_ptr, retrieve_ptr = Circular_queue.read_pointers q ctx in
  (* §5.1 staleness guard: if the retrieve pointer moved past our
     snapshot, swapping at SWAP_INDX could strand the packet's task in a
     slot the pointer already passed; swap with the head instead.  All
     comparisons are wrap-aware. *)
  let target, pkt_retrieve_ptr =
    if Circular_queue.is_ahead q retrieve_ptr pkt_retrieve_ptr then
      (retrieve_ptr, retrieve_ptr)
    else (swap_indx, pkt_retrieve_ptr)
  in
  let pending = Circular_queue.distance q ~ahead:add_ptr ~behind:retrieve_ptr in
  let pending = if pending > Circular_queue.wrap_modulus q / 2 then 0 else pending in
  let bound = Policy.swap_bound t.policy ~queue_occupancy:pending in
  let past_end = not (Circular_queue.is_ahead q add_ptr target) in
  if past_end || attempts >= bound then
    (* End of queue: nothing the executor can run; the packet is treated
       as a job_submission on its next traversal and the executor gets a
       no-op (§5.1). *)
    resubmit_and_noop t ~level ~entry ~info
  else begin
    match Circular_queue.swap q ctx ~index:target entry with
    | Circular_queue.Slot_invalid -> resubmit_and_noop t ~level ~entry ~info
    | Circular_queue.Swapped popped ->
      t.counts.swap_exchanges <- t.counts.swap_exchanges + 1;
      Metrics.note_dequeue t.metrics popped.task.id ~level ~rank:(-1);
      Metrics.note_enqueue t.metrics entry.task.id ~level;
      Metrics.note_swap t.metrics ~into:entry.task.id ~out:popped.task.id ~level;
      let popped = bump_skip popped in
      if Policy.satisfies t.policy ~entry:popped ~info then
        [ assign_to t info popped ~requested_at ]
      else begin
        t.counts.swaps <- t.counts.swaps + 1;
        Metrics.note_spin t.metrics popped.task.id;
        [ recirc t ~kind:"swap"
            (Switch_packet.Swap
               {
                 level;
                 entry = popped;
                 swap_indx = Circular_queue.next_index q target;
                 info;
                 pkt_retrieve_ptr;
                 attempts = attempts + 1;
                 requested_at;
               });
        ]
      end
  end

(* -- resubmission --------------------------------------------------------- *)

let handle_resubmit t ctx ~level (entry : Entry.t) =
  match enqueue_entry t ctx ~level entry with
  | Circular_queue.Enqueued { index = _; retrieve_repair } ->
    retrieve_repair_output t ~level retrieve_repair
  | Circular_queue.Rejected { add_repair; retrieve_repair } ->
    (* The queue filled while the task was travelling; bounce it to its
       client like any full-queue submission. *)
    let task = entry.task in
    reject_enqueue t ~level ~add_repair ~retrieve_repair ~client:entry.client
      ~uid:task.id.uid ~jid:task.id.jid [ task ]

(* -- PIFO-backed disciplines (admission, multi-traversal pops) ------------- *)

(* Rank computation rides the admission traversal; every register it
   touches (WFQ's vft) is distinct from the PIFO's own arrays, so the
   traversal stays within the one-access-per-register rule. *)
let pifo_rank t ctx vft (task : Task.t) =
  let now = Engine.now t.engine in
  match t.policy with
  | Policy.Edf { default_deadline } ->
    (* Rank = absolute deadline. *)
    now + Option.value ~default:default_deadline (Task.relative_deadline task)
  | Policy.Wfq { quantum; weights } ->
    let n = Array.length weights in
    let tenant =
      match Task.tenant task with
      | Some id when id >= 0 && id < n -> id
      | Some _ -> n - 1
      | None -> 0
    in
    let cost = Int.max 1 (quantum / weights.(tenant)) in
    let reg = Option.get vft in
    (* Virtual finish time F = max(prev, now) + quantum/weight; the
       stateful ALU hands the updated value back in packet metadata.
       Note the clock advances even if the occupancy gate later bounces
       the task — the ALUs fire in stage order on real hardware too. *)
    let finish = ref 0 in
    ignore
      (Register.read_modify_write reg ctx tenant (fun prev ->
           let f = (if prev > now then prev else now) + cost in
           finish := f;
           f));
    !finish
  | Policy.Aging_priority { levels; quantum } ->
    (* Strict priority with aging: one level costs [quantum] of queue
       age, so lower-priority tasks overtake once they are old enough. *)
    let p = Task.priority_level task in
    let p = if p < 1 then 1 else if p > levels then levels else p in
    now + ((p - 1) * quantum)
  | Policy.Fcfs | Policy.Resource_aware _ | Policy.Locality_aware _
  | Policy.Priority _ ->
    now

let pifo_admitted t pifo (task : Task.t) ~packed =
  Metrics.note_rank t.metrics task.id ~rank:(Pifo.rank_of_packed packed);
  Metrics.note_enqueue t.metrics task.id ~level:0;
  (* Switch-CPU stamp compaction; in-flight scans lose their claims
     through the epoch bump and restart. *)
  if Pifo.needs_renumber pifo then Pifo.renumber pifo

let pifo_continue t ~client ~uid ~jid rest =
  if rest = [] then [ Pipeline.Emit (client, Message.Job_ack { uid; jid }) ]
  else begin
    spin_all t rest;
    [ recirc t ~kind:"submission"
        (Switch_packet.Wire (Job_submission { client; uid; jid; tasks = rest }));
    ]
  end

let pifo_admit_outcome t pifo ~client ~uid ~jid ~(task : Task.t) ~rest = function
  | Pifo.Admitted { slot = _; packed } ->
    pifo_admitted t pifo task ~packed;
    pifo_continue t ~client ~uid ~jid rest
  | Pifo.Probing probe ->
    (* Probe row was full: the admission recirculates with an advanced
       row cursor. *)
    Metrics.note_spin t.metrics task.id;
    [ recirc t ~kind:"pifo-probe"
        (Switch_packet.Pifo_admit { probe; task; client; uid; jid; rest });
    ]
  | Pifo.Full ->
    (* Occupancy gate (or probe budget): bounce every not-yet-admitted
       task back to the client, like a full circular queue (§4.3). *)
    [ reject t ~client ~uid ~jid (task :: rest) ]

let handle_pifo_submission t ctx pifo vft ~client ~uid ~jid ~tasks =
  match tasks with
  | [] -> [ Pipeline.Emit (client, Message.Job_ack { uid; jid }) ]
  | task :: rest ->
    let rank = pifo_rank t ctx vft task in
    let words = Entry.to_words (Entry.make ~task ~client ()) in
    pifo_admit_outcome t pifo ~client ~uid ~jid ~task ~rest
      (Pifo.admit pifo ctx ~rank ~words)

let pifo_pop_next t ~info ~requested_at ~restarts = function
  | Pifo.Empty | Pifo.Drained ->
    (* Nothing claimable (drained scans race in-flight admissions): the
       executor gets a no-op and polls again. *)
    noop_to t info
  | Pifo.Scanning s ->
    [ recirc t ~kind:"pifo-scan"
        (Switch_packet.Pifo_pop
           { step = Switch_packet.Pop_scan s; info; requested_at; restarts });
    ]
  | Pifo.Ready c ->
    (* The claim needs its own traversal: the final scan traversal
       already accessed the winner's bank register. *)
    [ recirc t ~kind:"pifo-claim"
        (Switch_packet.Pifo_pop
           { step = Switch_packet.Pop_claim c; info; requested_at; restarts });
    ]

let handle_pifo_pop t ctx pifo ~info ~requested_at ~restarts step =
  match step with
  | Switch_packet.Pop_start ->
    Metrics.note_pop_scan t.metrics;
    pifo_pop_next t ~info ~requested_at ~restarts (Pifo.scan_start pifo ctx)
  | Switch_packet.Pop_scan s ->
    pifo_pop_next t ~info ~requested_at ~restarts (Pifo.scan_step pifo ctx s)
  | Switch_packet.Pop_claim c -> (
    match Pifo.claim pifo ctx c with
    | Pifo.Claimed { slot = _; packed; words } ->
      let entry = Entry.of_words words in
      Metrics.note_dequeue t.metrics entry.task.id ~level:0
        ~rank:(Pifo.rank_of_packed packed);
      [ assign_to t info entry ~requested_at ]
    | Pifo.Lost ->
      (* Raced by another claimer or invalidated by a renumber. *)
      if restarts >= max_pop_restarts then noop_to t info
      else
        [ recirc t ~kind:"pifo-restart"
            (Switch_packet.Pifo_pop
               {
                 step = Switch_packet.Pop_start;
                 info;
                 requested_at;
                 restarts = restarts + 1;
               });
        ])

(* Serve an executor's task request on whichever backend the policy
   deployed. *)
let serve_request t ctx info ~rtrv_prio ~requested_at =
  match t.backend with
  | Queues _ -> handle_request t ctx info ~rtrv_prio ~requested_at
  | Rank_store { pifo; _ } ->
    handle_pifo_pop t ctx pifo ~info ~requested_at ~restarts:0
      Switch_packet.Pop_start

(* -- the program ----------------------------------------------------------- *)

(* INT stage id of a packet kind, stamped once per traversal at
   dispatch.  The per-stage latency breakdown in the collector keys off
   these names. *)
let int_stage = function
  | Switch_packet.Wire (Job_submission _) -> Obs.Int_telemetry.Submission
  | Switch_packet.Wire (Task_request _) -> Obs.Int_telemetry.Request
  | Switch_packet.Wire (Task_completion _) -> Obs.Int_telemetry.Completion
  | Switch_packet.Prio_request _ -> Obs.Int_telemetry.Prio_scan
  | Switch_packet.Pifo_admit _ -> Obs.Int_telemetry.Pifo_probe
  | Switch_packet.Pifo_pop { step = Switch_packet.Pop_claim _; _ } ->
    Obs.Int_telemetry.Pifo_claim
  | Switch_packet.Pifo_pop _ -> Obs.Int_telemetry.Pifo_scan
  | Switch_packet.Repair_add _ -> Obs.Int_telemetry.Repair_add
  | Switch_packet.Repair_retrieve _ -> Obs.Int_telemetry.Repair_retrieve
  | Switch_packet.Swap _ -> Obs.Int_telemetry.Swap
  | Switch_packet.Resubmit _ -> Obs.Int_telemetry.Resubmit
  | Switch_packet.Wire _ -> Obs.Int_telemetry.Forward

let program t : (Message.t, Switch_packet.t) Pipeline.program =
 fun ctx pkt ->
  let now = Engine.now t.engine in
  ctx.Packet_ctx.telemetry.stage <- int_stage pkt;
  match pkt with
  | Switch_packet.Wire (Job_submission { client; uid; jid; tasks }) -> (
    match t.backend with
    | Queues _ -> handle_submission t ctx ~client ~uid ~jid ~tasks
    | Rank_store { pifo; vft } ->
      handle_pifo_submission t ctx pifo vft ~client ~uid ~jid ~tasks)
  | Switch_packet.Wire (Task_request { info; rtrv_prio }) ->
    serve_request t ctx info ~rtrv_prio ~requested_at:now
  | Switch_packet.Prio_request { info; rtrv_prio; requested_at } ->
    handle_request t ctx info ~rtrv_prio ~requested_at
  | Switch_packet.Wire (Task_completion { task_id = _; client; info; rtrv_prio } as completion) ->
    (* Forward the completion to the client and serve the piggybacked
       request for the executor's next task (§3.1). *)
    Pipeline.Emit (client, completion)
    :: serve_request t ctx info ~rtrv_prio ~requested_at:now
  | Switch_packet.Pifo_admit { probe; task; client; uid; jid; rest } -> (
    match t.backend with
    | Rank_store { pifo; _ } ->
      pifo_admit_outcome t pifo ~client ~uid ~jid ~task ~rest
        (Pifo.probe pifo ctx probe)
    | Queues _ -> [ Pipeline.Drop ])
  | Switch_packet.Pifo_pop { step; info; requested_at; restarts } -> (
    match t.backend with
    | Rank_store { pifo; _ } ->
      handle_pifo_pop t ctx pifo ~info ~requested_at ~restarts step
    | Queues _ -> noop_to t info)
  | Switch_packet.Repair_add { level; target } ->
    ctx.telemetry.level <- level;
    Circular_queue.apply_repair_add (queues_exn t).(level) ctx ~target;
    []
  | Switch_packet.Repair_retrieve { level; target } ->
    ctx.telemetry.level <- level;
    Circular_queue.apply_repair_retrieve (queues_exn t).(level) ctx ~target;
    []
  | Switch_packet.Swap { level; entry; swap_indx; info; pkt_retrieve_ptr; attempts; requested_at } ->
    handle_swap t ctx ~level ~entry ~swap_indx ~info ~pkt_retrieve_ptr ~attempts
      ~requested_at
  | Switch_packet.Resubmit { level; entry } -> handle_resubmit t ctx ~level entry
  | Switch_packet.Wire
      ( Job_ack _ | Queue_full _ | Task_assignment _ | Noop_assignment _
      | Param_fetch _ | Param_data _ ) ->
    (* Not scheduler traffic; a real deployment forwards such packets as
       a regular switch (§4.1), but no simulated host addresses them to
       the scheduler, so count them out. *)
    [ Pipeline.Drop ]
