open Draconis_sim
open Draconis_net
open Draconis_p4
open Draconis_proto
open Draconis

type pkt =
  | Wire of Message.t
  | Search of {
      task : Task.t;
      client : Addr.t;
      cursor : int;
      round : int;
      scanned : int;
    }
  | Steal_fixup of { victim : int option; thief : int option }
      (** work-stealing extension: counter corrections after a task
          moved between executors behind the switch's back; split across
          two traversals because victim and thief may share arrays *)

type config = {
  seed : int;
  workers : int;
  executors_per_worker : int;
  clients : int;
  jbsq_k : int;
  window : int;
  work_stealing : bool;
  fabric_config : Fabric.config;
  pipeline_config : Pipeline.config;
  client_timeout : Time.t option;
}

let default_config =
  {
    seed = 42;
    workers = 10;
    executors_per_worker = 16;
    clients = 2;
    jbsq_k = 3;
    window = 4;
    work_stealing = false;
    fabric_config = Fabric.default_config;
    pipeline_config = Pipeline.default_config;
    client_timeout = None;
  }

type switch = {
  n : int;  (* total executors *)
  epw : int;
  k : int;
  window : int;
  counters : Register.t array;  (* counter for executor e lives in
                                   array (e mod window), slot (e / window) *)
  idle_mask : Register.t;  (* cell w = bitmask of idle executors in
                              window w; lets one traversal find an idle
                              executor with a single register access *)
  dest : (Addr.t * int) Table.t;
      (* executor index -> (worker node, UDP port), installed by the
         network controller as a match-action table *)
  metrics : Metrics.t;
  engine : Engine.t;
  mutable steals : int;
}

type t = {
  config : config;
  engine : Engine.t;
  fabric : Message.t Fabric.t;
  pipeline : (Message.t, pkt) Pipeline.t;
  switch : switch;
  metrics : Metrics.t;
  clients : Client.t array;
}

(* One search pass: probe [window] consecutive executors, each touching a
   distinct counter array (legal single accesses), and push the task to
   the first whose occupancy is below the JBSQ bound; if none qualifies,
   recirculate and probe the next window.  This narrow-window
   first-fit reproduces the measured behaviour of the R2P2 artifact:
   with k = 1 it is an idle-executor hunt that recirculates (and, at
   load, drops) exactly as Fig. 7 shows, while with k >= 3 it accepts
   almost immediately — near-zero recirculation — but routinely stacks
   a task behind a busy executor, the node-level blocking that pins its
   tail at the task service time from ~30-40% utilization (Fig. 8). *)
let ctz m =
  let rec go m i = if m land 1 = 1 then i else go (m lsr 1) (i + 1) in
  if m = 0 then invalid_arg "ctz 0" else go m 0

let search_step (sw : switch) ctx ~task ~client ~cursor ~round ~scanned =
  let slot = cursor / sw.window in
  let accepted = ref None in
  (* Idle-first: one access to the window's idle mask claims its lowest
     idle executor, keeping JBSQ's prefer-empty behaviour without
     re-reading every counter. *)
  let mask_old =
    Register.read_modify_write sw.idle_mask ctx slot (fun m -> m land (m - 1))
  in
  let claimed_offset = if mask_old <> 0 then Some (ctz mask_old) else None in
  (match claimed_offset with
  | Some offset ->
    let old =
      Register.read_modify_write sw.counters.(offset) ctx slot (fun c ->
          if c < sw.k then c + 1 else c)
    in
    (* The mask bit can be momentarily stale; the counter condition is
       authoritative. *)
    if old < sw.k then accepted := Some (cursor + offset)
  | None -> ());
  (* Bounded-queue fallback (k > 1): stack behind a busy executor, the
     shallowest occupancy level first — "find an executor whose queue
     size is zero ... then one, and so on" (§2.2).  Each deeper level
     costs a full recirculation sweep, and stacking at all is where
     R2P2-k>=3 trades recirculation for node-level blocking. *)
  let bound = Int.min round (sw.k - 1) in
  if !accepted = None && sw.k > 1 then
    for offset = 0 to sw.window - 1 do
      if not (Option.equal Int.equal (Some offset) claimed_offset) then begin
        let old =
          Register.read_modify_write sw.counters.(offset) ctx slot (fun c ->
              if !accepted = None && c <= bound && c < sw.k then c + 1 else c)
        in
        if !accepted = None && old <= bound && old < sw.k then
          accepted := Some (cursor + offset)
      end
    done;
  match !accepted with
  | Some e ->
    let dst, port = Table.lookup sw.dest ~key:e in
    Metrics.note_assign sw.metrics task.Task.id ~node:(e / sw.epw)
      ~requested_at:(Engine.now sw.engine);
    [ Pipeline.Emit (dst, Message.Task_assignment { task; client; port }) ]
  | None ->
    let scanned = scanned + sw.window in
    let cursor = (cursor + sw.window) mod sw.n in
    let round, scanned =
      if scanned >= sw.n then (Int.min (round + 1) (sw.k - 1), 0) else (round, scanned)
    in
    [ Pipeline.Recirculate (Search { task; client; cursor; round; scanned }) ]

let program (sw : switch) : (Message.t, pkt) Pipeline.program =
 fun ctx pkt ->
  match pkt with
  | Wire (Job_submission { client; uid; jid; tasks }) ->
    (match tasks with
    | [] -> [ Pipeline.Emit (client, Message.Job_ack { uid; jid }) ]
    | task :: rest ->
      Metrics.note_enqueue sw.metrics task.Task.id ~level:0;
      (* The scan starts at a window picked by hashing the task id, as
         the hardware hashes packet fields. *)
      let slots = sw.n / sw.window in
      let id = task.Task.id in
      let h = (id.uid * 1_000_003) + (id.jid * 8191) + id.tid in
      let h = h * 0x9E3779B97F4A7C1 in
      let h = (h lxor (h lsr 31)) land max_int in
      let start = h mod slots * sw.window in
      let continuation =
        if rest = [] then []
        else
          [ Pipeline.Recirculate
              (Wire (Job_submission { client; uid; jid; tasks = rest }));
          ]
      in
      search_step sw ctx ~task ~client ~cursor:start ~round:1 ~scanned:0
      @ continuation)
  | Search { task; client; cursor; round; scanned } ->
    search_step sw ctx ~task ~client ~cursor ~round ~scanned
  | Wire (Task_completion { info; client; _ } as completion) ->
    (* The reply passes through the switch, which decrements the
       executor's counter (re-marking it idle when it empties) and
       forwards the completion to the client. *)
    let e = (info.exec_node * sw.epw) + info.exec_port in
    let offset = e mod sw.window and slot = e / sw.window in
    let old =
      Register.read_modify_write sw.counters.(offset) ctx slot (fun c ->
          Int.max 0 (c - 1))
    in
    if old = 1 then
      ignore
        (Register.read_modify_write sw.idle_mask ctx slot (fun m ->
             m lor (1 lsl offset)));
    [ Pipeline.Emit (client, completion) ]
  | Steal_fixup { victim; thief } -> (
    match (victim, thief) with
    | Some v, rest ->
      (* Victim lost a queued task: decrement, re-marking idle if it
         somehow emptied. *)
      let offset = v mod sw.window and slot = v / sw.window in
      let old =
        Register.read_modify_write sw.counters.(offset) ctx slot (fun c ->
            Int.max 0 (c - 1))
      in
      if old = 1 then
        ignore
          (Register.read_modify_write sw.idle_mask ctx slot (fun m ->
               m lor (1 lsl offset)));
      if rest = None then []
      else [ Pipeline.Recirculate (Steal_fixup { victim = None; thief = rest }) ]
    | None, Some th ->
      (* Thief gained a task: increment and clear its idle bit. *)
      let offset = th mod sw.window and slot = th / sw.window in
      ignore (Register.read_modify_write sw.counters.(offset) ctx slot (fun c -> c + 1));
      ignore
        (Register.read_modify_write sw.idle_mask ctx slot (fun m ->
             m land lnot (1 lsl offset)));
      []
    | None, None -> [])
  | Wire
      ( Job_ack _ | Queue_full _ | Task_request _ | Task_assignment _
      | Noop_assignment _ | Param_fetch _ | Param_data _ ) ->
    [ Pipeline.Drop ]

let create config =
  if config.workers * config.executors_per_worker mod config.window <> 0 then
    invalid_arg "R2p2.create: window must divide the executor count";
  if config.jbsq_k < 1 then invalid_arg "R2p2.create: jbsq_k must be >= 1";
  let engine = Engine.create () in
  let rng = Rng.create ~seed:config.seed in
  let fabric = Fabric.create ~config:config.fabric_config engine rng in
  let metrics = Metrics.create engine in
  let n = config.workers * config.executors_per_worker in
  let sw =
    {
      n;
      epw = config.executors_per_worker;
      k = config.jbsq_k;
      window = config.window;
      counters =
        Array.init config.window (fun i ->
            Register.create
              ~name:(Printf.sprintf "r2p2.counters%d" i)
              ~size:(n / config.window) ());
      idle_mask =
        (let mask = Register.create ~name:"r2p2.idle_mask" ~size:(n / config.window) () in
         for slot = 0 to (n / config.window) - 1 do
           Register.poke mask slot ((1 lsl config.window) - 1)
         done;
         mask);
      dest =
        (let table =
           Table.create ~name:"r2p2.dest" ~default:(Addr.Host 0, 0) ()
         in
         for e = 0 to n - 1 do
           Table.add_exact table ~key:e
             (Addr.Host (e / config.executors_per_worker), e mod config.executors_per_worker)
         done;
         table);
      metrics;
      engine;
      steals = 0;
    }
  in
  let pipeline =
    Pipeline.attach ~config:config.pipeline_config fabric
      ~wrap:(fun msg -> Wire msg)
      (program sw)
  in
  let fn_model = Fn_model.default in
  let steal_rng = Rng.split rng in
  let hop = config.fabric_config.Fabric.host_to_switch in
  (* One steal in flight per node, to keep idle executors from mounting
     a steal storm. *)
  let steal_busy = Array.make config.workers false in
  let all_execs = Array.make config.workers [||] in
  (* Work-stealing extension (§2.2.1): when an executor idles, ask a
     random peer node for its newest queued task.  The control messages
     are modeled as explicit latency (thief->victim, victim->thief data
     transfer) plus a counter fix-up packet into the switch pipeline —
     the coordination overhead the paper cites. *)
  let rec try_steal ~thief_node ~thief_port =
    if config.work_stealing && not steal_busy.(thief_node) && config.workers > 1 then begin
      steal_busy.(thief_node) <- true;
      let victim_node =
        let v = Rng.int steal_rng (config.workers - 1) in
        if v >= thief_node then v + 1 else v
      in
      ignore
        (Engine.schedule engine ~after:(2 * hop) (fun () ->
             (* At the victim: pick the most loaded executor. *)
             let best = ref None in
             Array.iter
               (fun exec ->
                 if Push_executor.occupancy exec >= 2 then
                   match !best with
                   | Some b when Push_executor.occupancy b >= Push_executor.occupancy exec
                     -> ()
                   | _ -> best := Some exec)
               all_execs.(victim_node);
             let stolen = Option.bind !best Push_executor.try_steal in
             (match stolen with
             | Some (task, client) ->
               sw.steals <- sw.steals + 1;
               let victim_exec =
                 (victim_node * config.executors_per_worker)
                 + Push_executor.port (Option.get !best)
               in
               let thief_exec =
                 (thief_node * config.executors_per_worker) + thief_port
               in
               (* Counter fix-up reaches the switch one hop later. *)
               ignore
                 (Engine.schedule engine ~after:hop (fun () ->
                      Pipeline.inject pipeline
                        (Steal_fixup
                           { victim = Some victim_exec; thief = Some thief_exec })));
               (* Task transfer back to the thief. *)
               ignore
                 (Engine.schedule engine ~after:(2 * hop) (fun () ->
                      steal_busy.(thief_node) <- false;
                      Push_executor.push all_execs.(thief_node).(thief_port) task ~client))
             | None ->
               ignore
                 (Engine.schedule engine ~after:(2 * hop) (fun () ->
                      steal_busy.(thief_node) <- false)))))
    end
  and maybe_steal_after_completion ~node ~port =
    if config.work_stealing then
      ignore
        (Engine.schedule engine ~after:1 (fun () ->
             if not (Push_executor.busy all_execs.(node).(port)) then
               try_steal ~thief_node:node ~thief_port:port))
  in
  (* JBSQ workers: push executors that reply through the switch. *)
  for node = 0 to config.workers - 1 do
    let executors =
      Array.init config.executors_per_worker (fun port ->
          Push_executor.create ~engine ~metrics ~node ~port ~fn_model
            ~on_complete:(fun task ~client ->
              Fabric.send fabric ~src:(Addr.Host node) ~dst:Addr.Switch
                (Message.Task_completion
                   {
                     task_id = task.id;
                     client;
                     info =
                       {
                         exec_addr = Addr.Host node;
                         exec_port = port;
                         exec_rsrc = 0;
                         exec_node = node;
                       };
                     rtrv_prio = 1;
                   });
              maybe_steal_after_completion ~node ~port)
            ())
    in
    all_execs.(node) <- executors;
    Fabric.register fabric (Addr.Host node) (fun env ->
        match env.Fabric.payload with
        | Message.Task_assignment { task; client; port } ->
          if port >= 0 && port < Array.length executors then
            Push_executor.push executors.(port) task ~client
        | Message.Job_submission _ | Message.Job_ack _ | Message.Queue_full _
        | Message.Task_request _ | Message.Noop_assignment _
        | Message.Task_completion _ | Message.Param_fetch _ | Message.Param_data _ ->
          ())
  done;
  let clients =
    Array.init config.clients (fun i ->
        Client.create
          ~config:
            {
              (Client.default_config ~host:(config.workers + i) ~uid:i) with
              timeout = config.client_timeout;
            }
          ~fabric ~metrics ())
  in
  { config; engine; fabric; pipeline; switch = sw; metrics; clients }

let engine t = t.engine
let fabric t = t.fabric
let metrics t = t.metrics
let pipeline t = t.pipeline

let fail_over_switch t =
  (* Standby switch comes up with zeroed registers: every executor is
     believed idle again and any recirculating Search packet (a task
     hunting for a slot) is lost with the dead switch.  Tasks already
     pushed to executors keep running — only the switch's view resets —
     so the returned count is the believed occupancy that was lost, and
     mid-search tasks are recovered by client timeouts. *)
  let sw = t.switch in
  let slots = sw.n / sw.window in
  let believed = ref 0 in
  for offset = 0 to sw.window - 1 do
    for slot = 0 to slots - 1 do
      believed := !believed + Register.peek sw.counters.(offset) slot;
      Register.poke sw.counters.(offset) slot 0
    done
  done;
  for slot = 0 to slots - 1 do
    Register.poke sw.idle_mask slot ((1 lsl sw.window) - 1)
  done;
  Pipeline.flush_in_flight t.pipeline;
  !believed

let client t i =
  if i < 0 || i >= Array.length t.clients then invalid_arg "R2p2.client: bad index";
  t.clients.(i)

let clients t = t.clients

let steals t = t.switch.steals

let counter t e =
  if e < 0 || e >= t.switch.n then invalid_arg "R2p2.counter: bad executor";
  Register.peek t.switch.counters.(e mod t.switch.window) (e / t.switch.window)

let run t ~until = Engine.run ~until t.engine

let outstanding t =
  Array.fold_left (fun acc c -> acc + Client.outstanding c) 0 t.clients

let run_until_drained t ~deadline =
  let step = Time.ms 1 in
  let rec go () =
    if outstanding t = 0 then true
    else if Engine.now t.engine >= deadline then false
    else begin
      Engine.run ~until:(Int.min deadline (Engine.now t.engine + step)) t.engine;
      go ()
    end
  in
  go ()

let total_executors t = t.switch.n
