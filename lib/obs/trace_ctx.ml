open Draconis_sim

type stage =
  | Created
  | In_flight
  | At_switch
  | Recirculating
  | Queued of int
  | Examined
  | Dispatched
  | Running
  | Finished

type journey = {
  submit_at : Time.t;
  mutable last_at : Time.t;
  mutable stage : stage;
  phases : int array;
  mutable sched : Time.t;  (* -1 until the first executor start *)
  mutable flags : int;
}

type t = { collector : Attribution.t; check : bool }

(* Only explicit booleans are accepted: treating any junk value as
   "on" would hide typos (DRACONIS_PHASE_CHECK=ture), and treating it
   as "off" would silently disarm the check — the same fail-loudly
   contract as DRACONIS_JOBS. *)
let env_check () =
  match Sys.getenv_opt "DRACONIS_PHASE_CHECK" with
  | None | Some "" | Some "0" -> false
  | Some "1" -> true
  | Some v ->
    invalid_arg
      (Printf.sprintf "Trace_ctx: DRACONIS_PHASE_CHECK must be \"1\" or \"0\", got %S" v)

let create ?check ?top_k () =
  {
    collector = Attribution.create ?top_k ();
    check = (match check with Some c -> c | None -> env_check ());
  }

let collector t = t.collector

let finish t ~incomplete =
  Attribution.note_incomplete t.collector incomplete;
  t.collector

let start ~at =
  {
    submit_at = at;
    last_at = at;
    stage = Created;
    phases = Array.make Phase.count 0;
    sched = -1;
    flags = 0;
  }

(* Every milestone charges the interval since the previous one to a
   single phase and advances the cursor, so per task the buckets always
   telescope to (last milestone - submit) exactly. *)
let charge j ~at phase =
  let i = Phase.index phase in
  j.phases.(i) <- j.phases.(i) + (at - j.last_at);
  j.last_at <- at

(* The phase of an interval ending at a switch traversal: the first
   traversal after a fabric arrival is match-action (pipeline) time;
   any later one was reached through the loop-back port. *)
let traverse_phase j =
  match j.stage with
  | Recirculating | Examined -> Phase.Recirc
  | Created | In_flight | At_switch | Queued _ | Dispatched | Running | Finished ->
    Phase.Pipeline

let sent j ~at =
  charge j ~at Phase.Client;
  j.stage <- In_flight

let arrive j ~at =
  charge j ~at Phase.Fabric;
  j.stage <- At_switch

let spin j ~at =
  charge j ~at (traverse_phase j);
  j.stage <- Recirculating

let enqueue j ~at ~level =
  charge j ~at (traverse_phase j);
  j.stage <- Queued level

let reject j ~at =
  charge j ~at (traverse_phase j);
  j.stage <- Created;
  j.flags <- j.flags lor Attribution.flag_reject

let dequeue j ~at =
  charge j ~at Phase.Queue;
  j.stage <- Examined

(* Dequeue and assignment share the traversal tick, so this charge is
   zero-width; it only moves the cursor to the dispatch edge. *)
let assign j ~at =
  charge j ~at Phase.Queue;
  j.stage <- Dispatched

let exec_start j ~at =
  charge j ~at Phase.Dispatch;
  j.stage <- Running;
  if j.sched < 0 then j.sched <- at - j.submit_at

let exec_done j ~at =
  charge j ~at Phase.Service;
  j.stage <- Finished

let flag_swap j = j.flags <- j.flags lor Attribution.flag_swap
let flag_resubmit j = j.flags <- j.flags lor Attribution.flag_resubmit

let repair_window j ~level =
  match j.stage with
  | Queued l when l = level -> j.flags <- j.flags lor Attribution.flag_repair
  | _ -> ()

let scheduling_prefix j =
  List.fold_left
    (fun acc phase ->
      if Phase.in_scheduling phase then acc + j.phases.(Phase.index phase) else acc)
    0 Phase.all

let seal t j ~key ~at =
  charge j ~at Phase.Reply;
  let total = at - j.submit_at in
  if t.check then begin
    let sum = Array.fold_left ( + ) 0 j.phases in
    let uid, jid, tid = key in
    if sum <> total then
      failwith
        (Printf.sprintf
           "Trace_ctx: task %d.%d.%d phase sum %d ns <> end-to-end %d ns" uid jid
           tid sum total);
    (* Sub-check: the scheduling-phase prefix matches the measured
       scheduling delay whenever a single journey reached the
       executor (resubmission can legitimately split it). *)
    if j.sched >= 0 && j.flags land Attribution.flag_resubmit = 0 then begin
      let prefix = scheduling_prefix j in
      if prefix <> j.sched then
        failwith
          (Printf.sprintf
             "Trace_ctx: task %d.%d.%d scheduling prefix %d ns <> scheduling \
              delay %d ns"
             uid jid tid prefix j.sched)
    end
  end;
  Attribution.add t.collector
    { Attribution.key; total; sched = j.sched; phases = j.phases; flags = j.flags };
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
