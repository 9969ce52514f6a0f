open Draconis_sim
open Draconis_proto
module Attribution = Draconis_obs.Attribution
module Phase = Draconis_obs.Phase
module Recorder = Draconis_obs.Recorder

(* What a journey's next charge depends on: a traversal reached through
   the loop-back port (after a pop or a recirculation) is recirculation
   time, any other is match-action (pipeline) time, and a repair window
   tags only tasks queued at its level. *)
type stage = Ingress | Loopback | Queued of int

type journey = {
  submit_at : Time.t;
  mutable last_at : Time.t;
  mutable stage : stage;
  phases : int array;
  mutable sched : Time.t;  (* -1 until the first executor start *)
  mutable flags : int;
}

type t = { engine : Engine.t; live : journey Task.Tbl.t; collector : Attribution.t }

let create engine =
  { engine; live = Task.Tbl.create 1024; collector = Attribution.create () }

let collector t = t.collector

let finish t =
  Attribution.note_incomplete t.collector (Task.Tbl.length t.live);
  t.collector

let start ~at =
  {
    submit_at = at;
    last_at = at;
    stage = Ingress;
    phases = Array.make Phase.count 0;
    sched = -1;
    flags = 0;
  }

(* Every milestone charges the interval since the previous one to a
   single phase and advances the cursor, so per task the buckets always
   telescope to (last milestone - submit) exactly. *)
let advance j ~at phase stage =
  let i = Phase.index phase in
  j.phases.(i) <- j.phases.(i) + (at - j.last_at);
  j.last_at <- at;
  j.stage <- stage

(* The phase of an interval ending at a switch traversal. *)
let traversal j =
  match j.stage with Loopback -> Phase.Recirc | Ingress | Queued _ -> Phase.Pipeline

let tag j flag = j.flags <- j.flags lor flag

let scheduling_prefix j =
  List.fold_left
    (fun acc phase ->
      if Phase.in_scheduling phase then acc + j.phases.(Phase.index phase) else acc)
    0 Phase.all

let seal t j (id : Task.id) ~at =
  advance j ~at Phase.Reply Ingress;
  let total = at - j.submit_at in
  let fail fmt =
    Printf.ksprintf failwith ("Journey: task %d.%d.%d " ^^ fmt) id.uid id.jid id.tid
  in
  let sum = Array.fold_left ( + ) 0 j.phases in
  if sum <> total then fail "phase sum %d ns <> end-to-end %d ns" sum total;
  (* The scheduling-phase prefix matches the measured scheduling delay
     whenever a single journey reached the executor (resubmission can
     legitimately split it). *)
  if j.sched >= 0 && j.flags land Attribution.flag_resubmit = 0 then begin
    let prefix = scheduling_prefix j in
    if prefix <> j.sched then
      fail "scheduling prefix %d ns <> scheduling delay %d ns" prefix j.sched
  end;
  Attribution.add t.collector
    {
      Attribution.key = (id.uid, id.jid, id.tid);
      total;
      sched = j.sched;
      phases = j.phases;
      flags = j.flags;
    };
  (* Phase samples also land in the ambient recorder's histograms, so
     the standard metrics export carries per-phase p50/p99 without a
     schema change. *)
  if Recorder.active () then begin
    List.iter
      (fun phase ->
        Recorder.record ("phase." ^ Phase.name phase) j.phases.(Phase.index phase))
      Phase.all;
    Recorder.record "phase.total" total;
    if j.sched >= 0 then Recorder.record "phase.sched" j.sched
  end

let on t id step = match Task.Tbl.find_opt t.live id with Some j -> step j | None -> ()
let on_each t tasks step = List.iter (fun (task : Task.t) -> on t task.id step) tasks

(* The milestone -> phase table.  A milestone for a task with no live
   journey (never submitted since [attach], or already sealed) moves
   nothing. *)
let read t (milestone : Metrics.milestone) =
  let at = Engine.now t.engine in
  match milestone with
  | Submitted id -> Task.Tbl.replace t.live id (start ~at)
  | Sent tasks -> on_each t tasks (fun j -> advance j ~at Phase.Client Ingress)
  | Arrived tasks -> on_each t tasks (fun j -> advance j ~at Phase.Fabric Ingress)
  | Rejected tasks ->
    on_each t tasks (fun j ->
        advance j ~at (traversal j) Ingress;
        tag j Attribution.flag_reject)
  | Spun id -> on t id (fun j -> advance j ~at (traversal j) Loopback)
  | Swap_started id ->
    on t id (fun j ->
        tag j Attribution.flag_swap;
        advance j ~at (traversal j) Loopback)
  | Swapped { out; _ } -> on t out (fun j -> tag j Attribution.flag_swap)
  | Enqueued { id; level } ->
    on t id (fun j -> advance j ~at (traversal j) (Queued level))
  | Dequeued { id; _ } -> on t id (fun j -> advance j ~at Phase.Queue Loopback)
  (* Dequeue and assignment share the traversal tick, so this charge is
     zero-width; it only moves the cursor to the dispatch edge. *)
  | Assigned { id; _ } -> on t id (fun j -> advance j ~at Phase.Queue Ingress)
  | Started { task; _ } ->
    on t task.id (fun j ->
        advance j ~at Phase.Dispatch Ingress;
        if j.sched < 0 then j.sched <- at - j.submit_at)
  | Finished { task; _ } -> on t task.id (fun j -> advance j ~at Phase.Service Ingress)
  | Resubmitted id -> on t id (fun j -> tag j Attribution.flag_resubmit)
  | Repair_flagged { level; _ } ->
    Task.Tbl.iter
      (fun _ j ->
        match j.stage with
        | Queued l when l = level -> tag j Attribution.flag_repair
        | _ -> ())
      t.live
  | Completed id ->
    (* Sealed once: a stale copy's later milestones find no journey. *)
    on t id (fun j ->
        Task.Tbl.remove t.live id;
        seal t j id ~at)
  | Ranked _ | Recirculated _ | Pop_scan_started | Noop -> ()

let attach t metrics = Metrics.observe metrics (read t)
