open Draconis_sim
open Draconis_net
open Draconis_stats
open Draconis_proto

type placement = { mutable local : int; mutable same_rack : int; mutable remote : int }

type repair_flag = Add_flag | Retrieve_flag

let repair_flag_name = function Add_flag -> "add" | Retrieve_flag -> "retrieve"

type milestone =
  | Submitted of Task.id
  | Sent of Task.t list
  | Resubmitted of Task.id
  | Arrived of Task.t list
  | Enqueued of { id : Task.id; level : int }
  | Ranked of { id : Task.id; rank : int }
  | Rejected of Task.t list
  | Dequeued of { id : Task.id; level : int; rank : int }
  | Swap_started of Task.id
  | Swapped of { into : Task.id; out : Task.id; level : int }
  | Spun of Task.id
  | Recirculated of string
  | Repair_flagged of { flag : repair_flag; level : int }
  | Pop_scan_started
  | Noop
  | Assigned of { id : Task.id; node : int }
  | Started of { task : Task.t; node : int; port : int }
  | Finished of { task : Task.t; node : int; port : int }
  | Completed of Task.id

(* What the notes of one task have recorded so far: created by its first
   [note_submit] or [note_enqueue], dropped by its [note_complete] unless
   the client resubmitted it.  [unset] marks a note not seen yet. *)
type task_state = {
  mutable submitted_at : Time.t;
  mutable enqueued_at : Time.t;
  mutable level : int;
}

let unset = -1

module Int_tbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

(* All the actual state — tables, samplers, counters — lives in one
   [core] owned by a single logical process.  A [t] is a handle on a
   core: the owner's handle mutates it directly, while a [remote] handle
   (sharded runs) reads its own LP's clock and ships every mutation as a
   stamped closure to the owner's LP, so the core is only ever touched
   from one domain and sampler insertion order is the owner-LP event
   order — partition-independent. *)
type core = {
  topology : Topology.t option;
  tasks : task_state Task.Tbl.t;
  scheduling_delay : Sampler.t;
  end_to_end_delay : Sampler.t;
  queueing_by_level : Sampler.t Int_tbl.t;
  get_task_by_level : Sampler.t Int_tbl.t;
  delay_by_class : Sampler.t Int_tbl.t;
  decisions : Meter.t;
  placement : placement;
  mutable submitted : int;
  mutable started : int;
  mutable completed : int;
  mutable deadline_tracked : int;
  mutable deadline_misses : int;
  mutable observer : (milestone -> unit) option;
  observer_lock : Mutex.t;
}

type t = {
  engine : Engine.t;
  core : core;
  post : (at:Time.t -> (unit -> unit) -> unit) option;
      (* [None]: mutate inline (the single-engine reference behaviour).
         [Some post]: defer the mutation closure, stamped with the
         capture time, to the core owner's LP. *)
}

let create ?topology engine =
  {
    engine;
    post = None;
    core =
      {
        topology;
        tasks = Task.Tbl.create 4096;
        scheduling_delay = Sampler.create ();
        end_to_end_delay = Sampler.create ();
        queueing_by_level = Int_tbl.create 8;
        get_task_by_level = Int_tbl.create 8;
        delay_by_class = Int_tbl.create 8;
        decisions = Meter.create ();
        placement = { local = 0; same_rack = 0; remote = 0 };
        submitted = 0;
        started = 0;
        completed = 0;
        deadline_tracked = 0;
        deadline_misses = 0;
        observer = None;
        observer_lock = Mutex.create ();
      };
  }

let remote t ~engine ~post = { engine; core = t.core; post = Some post }

let observe t f =
  if Option.is_some t.core.observer then
    invalid_arg "Metrics.observe: the metrics already have an observer";
  t.core.observer <- Some f

(* Every note reports its milestone first, inline on the caller's LP:
   [if observed t then report t (...)] builds the milestone only when an
   observer is installed, and the lock keeps the switch LP's and the
   host LP's calls apart on a sharded cluster. *)
let observed t = Option.is_some t.core.observer

let report t milestone =
  match t.core.observer with
  | None -> ()
  | Some f -> Mutex.protect t.core.observer_lock (fun () -> f milestone)

(* Every note below reads [now] from the caller's engine and runs its
   body, a top-level function of the core, [now] and two arguments:
   inline on the owner's handle, which allocates no closure, or on the
   owner's LP through [post] for a [remote] handle, the one case that
   needs a closure.  Reads of cross-entity state (e.g. the submit time
   in [exec_start]) happen inside the body: by the lookahead contract
   the submit note's stamp always precedes the exec-start note's stamp,
   so a deferred read still observes the submission. *)
let dispatch t body x y =
  let now = Engine.now t.engine in
  match t.post with
  | None -> body t.core now x y
  | Some post -> post ~at:now (fun () -> body t.core now x y)

let level_sampler tbl level =
  match Int_tbl.find_opt tbl level with
  | Some sampler -> sampler
  | None ->
    let sampler = Sampler.create () in
    Int_tbl.replace tbl level sampler;
    sampler

let task_state c id =
  match Task.Tbl.find_opt c.tasks id with
  | Some s -> s
  | None ->
    let s = { submitted_at = unset; enqueued_at = unset; level = 0 } in
    Task.Tbl.replace c.tasks id s;
    s

let submit c now id () =
  let s = task_state c id in
  if s.submitted_at = unset then begin
    c.submitted <- c.submitted + 1;
    s.submitted_at <- now
  end

let note_submit t id =
  if observed t then report t (Submitted id);
  dispatch t submit id ()

let complete c now id resubmitted =
  c.completed <- c.completed + 1;
  match Task.Tbl.find_opt c.tasks id with
  | None -> ()
  | Some s ->
    if s.submitted_at <> unset then Sampler.record c.end_to_end_delay (now - s.submitted_at);
    (* A resubmitted task may still have a copy queued or running:
       its start must find the first submission, so its record
       stays for the rest of the run. *)
    if not resubmitted then Task.Tbl.remove c.tasks id

let note_complete t id ~resubmitted =
  if observed t then report t (Completed id);
  dispatch t complete id resubmitted

let classify_placement c (task : Task.t) ~node =
  match (Task.locality_nodes task, c.topology) with
  | [], _ | _, None -> ()
  | locals, Some topo ->
    if List.mem node locals then c.placement.local <- c.placement.local + 1
    else if List.exists (fun local -> Topology.same_rack topo node local) locals then
      c.placement.same_rack <- c.placement.same_rack + 1
    else c.placement.remote <- c.placement.remote + 1

(* A task's fairness class: its tenant or priority level (0 for tasks
   carrying neither). *)
let task_class (task : Task.t) =
  match Task.tenant task with
  | Some id -> id
  | None -> ( match task.tprops with Task.Priority p -> p | _ -> 0)

let exec_start c now task node =
  c.started <- c.started + 1;
  classify_placement c task ~node;
  match Task.Tbl.find_opt c.tasks task.Task.id with
  | None -> ()
  | Some s ->
    if s.submitted_at <> unset then begin
      let delay = now - s.submitted_at in
      Sampler.record c.scheduling_delay delay;
      Sampler.record (level_sampler c.delay_by_class (task_class task)) delay;
      match Task.relative_deadline task with
      | None -> ()
      | Some deadline ->
        c.deadline_tracked <- c.deadline_tracked + 1;
        if delay > deadline then c.deadline_misses <- c.deadline_misses + 1
    end

let note_exec_start t task ~node ~port =
  if observed t then report t (Started { task; node; port });
  dispatch t exec_start task node

let enqueue c now id level =
  let s = task_state c id in
  if s.enqueued_at = unset then begin
    s.enqueued_at <- now;
    s.level <- level
  end

let note_enqueue t id ~level =
  if observed t then report t (Enqueued { id; level });
  dispatch t enqueue id level

let assign c now id requested_at =
  Meter.mark c.decisions ~now ();
  match Task.Tbl.find_opt c.tasks id with
  | None -> ()
  | Some s ->
    if s.enqueued_at <> unset then begin
      Sampler.record (level_sampler c.queueing_by_level s.level) (now - s.enqueued_at);
      Sampler.record (level_sampler c.get_task_by_level s.level) (now - requested_at)
    end

let note_assign t id ~node ~requested_at =
  if observed t then report t (Assigned { id; node });
  dispatch t assign id requested_at

(* The notes only an observer reads: with none installed they return
   before they build a milestone. *)
let note_sent t tasks = if observed t then report t (Sent tasks)
let note_arrive t tasks = if observed t then report t (Arrived tasks)
let note_resubmit t id = if observed t then report t (Resubmitted id)

let note_exec_finish t task ~node ~port =
  if observed t then report t (Finished { task; node; port })

let note_reject t tasks = if observed t then report t (Rejected tasks)

let note_dequeue t id ~level ~rank =
  if observed t then report t (Dequeued { id; level; rank })

let note_swap_start t id = if observed t then report t (Swap_started id)

let note_swap t ~into ~out ~level =
  if observed t then report t (Swapped { into; out; level })

let note_spin t id = if observed t then report t (Spun id)

let note_repair_flag t flag ~level =
  if observed t then report t (Repair_flagged { flag; level })

let note_rank t id ~rank = if observed t then report t (Ranked { id; rank })
let note_recirculate t ~kind = if observed t then report t (Recirculated kind)
let note_pop_scan t = if observed t then report t Pop_scan_started
let note_noop t = if observed t then report t Noop

let scheduling_delay t = t.core.scheduling_delay
let end_to_end_delay t = t.core.end_to_end_delay
let queueing_delay t ~level = level_sampler t.core.queueing_by_level level

let delay_by_class t =
  Int_tbl.fold (fun cls sampler acc -> (cls, sampler) :: acc) t.core.delay_by_class []
  |> List.sort (fun (a, _) (b, _) -> Int.compare a b)

let deadline_tracked t = t.core.deadline_tracked
let deadline_misses t = t.core.deadline_misses
let get_task_delay t ~level = level_sampler t.core.get_task_by_level level
let decisions t = t.core.decisions
let placement t = t.core.placement
let submitted t = t.core.submitted
let started t = t.core.started
let completed t = t.core.completed
let in_flight t = Task.Tbl.length t.core.tasks

(* [started] counts assignment events, so a task that is lost and
   resubmitted starts more than once; clamp so duplicated starts under
   fault injection cannot drive the count negative. *)
let unstarted t = Int.max 0 (t.core.submitted - t.core.started)
