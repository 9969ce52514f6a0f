open Draconis_proto
module Metrics = Draconis.Metrics

(* -- the recorded execution ------------------------------------------------ *)

type event =
  | Submitted of { id : Task.id }
  | Switch of { milestone : Metrics.milestone; int_occ : int option }
  | Delivered of { id : Task.id; executor : int }
  | Returned of { id : Task.id }
  | Completed of { id : Task.id }

let id_to_string (id : Task.id) = Printf.sprintf "%d.%d.%d" id.uid id.jid id.tid

(* The rig logs the switch program's milestones only. *)
let milestone_to_string : Metrics.milestone -> string = function
  | Enqueued { id; level } -> Printf.sprintf "enqueued %s L%d" (id_to_string id) level
  | Dequeued { id; level; rank } ->
    Printf.sprintf "dequeued %s L%d%s" (id_to_string id) level
      (if rank < 0 then "" else Printf.sprintf " rank=%d" rank)
  | Swapped { into; out; level } ->
    Printf.sprintf "swapped in=%s out=%s L%d" (id_to_string into) (id_to_string out)
      level
  | Assigned { id; node } -> Printf.sprintf "assigned %s node=%d" (id_to_string id) node
  | Rejected tasks -> Printf.sprintf "rejected %d" (List.length tasks)
  | Noop -> "noop"
  | Repair_flagged { flag; level } ->
    Printf.sprintf "repair-flag %s L%d" (Metrics.repair_flag_name flag) level
  | Recirculated kind -> Printf.sprintf "recirculated %s" kind
  | Ranked { id; rank } -> Printf.sprintf "ranked %s rank=%d" (id_to_string id) rank
  | Pop_scan_started -> "pop-scan"
  | Submitted _ | Sent _ | Resubmitted _ | Arrived _ | Swap_started _ | Spun _
  | Started _ | Finished _ | Completed _ ->
    "unlogged milestone"

let event_to_string = function
  | Submitted { id } -> Printf.sprintf "submitted %s" (id_to_string id)
  | Switch { milestone; int_occ } ->
    milestone_to_string milestone
    ^ (match int_occ with None -> "" | Some o -> Printf.sprintf " occ=%d" o)
  | Delivered { id; executor } ->
    Printf.sprintf "delivered %s exec=%d" (id_to_string id) executor
  | Returned { id } -> Printf.sprintf "returned %s" (id_to_string id)
  | Completed { id } -> Printf.sprintf "completed %s" (id_to_string id)

type level_state = {
  add_ptr : int;
  retrieve_ptr : int;
  add_flag : bool;
  retrieve_flag : bool;
  pointer_occupancy : int;
  walk : Task.id list;  (** stamped entries from retrieve to add pointer *)
  stamped : int;  (** slots holding a stamp anywhere in the queue *)
}

type run = {
  events : event array;
  levels : level_state array;
  fabric_lost : int;  (** loss + partition drops *)
  recirc_dropped : int;
  access_violation : string option;
  fingerprint : int64;
  out_of_budget : int option;
}

(* -- invariant registry ---------------------------------------------------- *)

let invariants =
  [
    "no-lost-task";
    "no-duplicate-task";
    "fifo-order";
    "occupancy-bound";
    "pointer-convergence";
    "stamp-validity";
    "single-register-access";
    "replication-consistency";
    "pifo-order";
    "int-consistency";
    "sharded-consistency";
    "progress";
  ]

type violation = { invariant : string; detail : string; trace : string list }

type report = {
  checks : (string * int) list;
  violations : violation list;
  fired : (string * int) list;
  strict : bool;
}

let trace_window = 32
let kept_per_invariant = 3

(* -- the replay ------------------------------------------------------------ *)

(* Events that execute on the switch LP: their relative order is fixed
   by the mailbox stamps, so it must be identical across partitionings.
   Host-side events run on whichever LP owns the host; only their
   multiset is partition-independent. *)
let switch_side = function
  | Submitted _ | Delivered _ | Returned _ | Completed _ -> false
  | Switch _ -> true

let check ?twin ?sharded schedule run =
  let checks = Hashtbl.create 16 in
  List.iter (fun inv -> Hashtbl.replace checks inv 0) invariants;
  let checked inv = Hashtbl.replace checks inv (Hashtbl.find checks inv + 1) in
  let violations = ref [] in
  let fired = Hashtbl.create 16 in
  List.iter (fun inv -> Hashtbl.replace fired inv 0) invariants;
  (* The causal trace of a mid-log violation is the log up to that
     event; end-state violations carry the tail of the whole log. *)
  let trace_upto n =
    let lo = max 0 (n - trace_window) in
    List.init (n - lo) (fun i -> event_to_string run.events.(lo + i))
  in
  (* Only the first few violations of an invariant keep their detail
     and trace; a runaway execution can fire one invariant hundreds of
     thousands of times, and formatting each trace would dominate. *)
  let violate ~at invariant detail =
    let n = Hashtbl.find fired invariant in
    Hashtbl.replace fired invariant (n + 1);
    if n < kept_per_invariant then
      violations := { invariant; detail; trace = trace_upto at } :: !violations
  in
  let n = Array.length run.events in
  (* Conservation is exact only when no packet can legitimately vanish:
     lossy fault windows eat wire packets and recirculation overflow
     eats repair/swap/resubmit packets. *)
  let strict =
    (not (List.exists Op.is_lossy schedule.Schedule.ops))
    && run.recirc_dropped = 0
    && run.access_violation = None
  in
  let oracle =
    Oracle.create
      ~levels:(Schedule.levels schedule.Schedule.policy)
      ~capacity:schedule.Schedule.capacity ()
  in
  (* The swap primitive of constraint-based policies reorders the queue
     by design (§5.1), and duplicate submissions make physical copies of
     one id indistinguishable to the oracle — so FIFO order is only an
     invariant of the non-swapping policies.  PIFO disciplines release
     by rank, not FIFO; they get the dedicated pifo-order invariant
     below instead.  Conservation and occupancy stay exact either way. *)
  let pifo = Schedule.is_pifo schedule.Schedule.policy in
  let reorders =
    (match schedule.Schedule.policy with Schedule.Rsrc _ -> true | _ -> false)
    || pifo
  in
  (* PIFO-order bookkeeping: ranks stamped at admission, the queued set
     in enqueue order, and outstanding scan starts.  A release names the
     rank the store released, and the copy with that id and that rank
     leaves: a duplicate submission queues copies of one id at different
     ranks, and judging the release by any other copy's rank is wrong.
     A release at a rank no queued copy of the id holds is a violation.
     A dequeue may legally miss entries admitted after its scan began;
     entries admitted before the EARLIEST outstanding scan start were
     visible to every active scan, so releasing a larger rank past one
     of them is a real ordering violation (same-rank ties are free). *)
  let last_rank = Hashtbl.create 64 in
  let pifo_queued = ref [] in
  let scan_starts = Queue.create () in
  let same_id id (id', _, _) = Task.compare_id id' id = 0 in
  let pifo_dequeue ~at id ~rank =
    let rec split acc = function
      | [] -> None
      | ((_, r, _) as x) :: rest when same_id id x && r = rank ->
        Some (List.rev_append acc rest)
      | x :: rest -> split (x :: acc) rest
    in
    match split [] !pifo_queued with
    | None when List.exists (same_id id) !pifo_queued ->
      checked "pifo-order";
      violate ~at "pifo-order"
        (Printf.sprintf "released %s at rank %d, which no queued copy of it holds"
           (id_to_string id) rank);
      ignore (Queue.take_opt scan_starts)
    | None -> () (* stamp-validity flags unknown dequeues already *)
    | Some rest ->
      pifo_queued := rest;
      checked "pifo-order";
      let horizon =
        match Queue.peek_opt scan_starts with Some s -> s | None -> at
      in
      let offender =
        List.fold_left
          (fun best (id', r', e') ->
            if e' < horizon && r' < rank then
              match best with
              | Some (_, rb, _) when rb <= r' -> best
              | _ -> Some (id', r', e')
            else best)
          None rest
      in
      (match offender with
      | None -> ()
      | Some (id', r', _) ->
        violate ~at "pifo-order"
          (Printf.sprintf
             "dequeued %s (rank %d) while %s (rank %d, admitted before the \
              scan began) was still queued"
             (id_to_string id) rank (id_to_string id') r'));
      ignore (Queue.take_opt scan_starts)
  in
  let submitted = Hashtbl.create 64 in
  let accounted = Hashtbl.create 64 in
  let bump tbl id =
    Hashtbl.replace tbl id (1 + Option.value ~default:0 (Hashtbl.find_opt tbl id))
  in
  let i = ref 0 in
  while !i < n do
    let at = !i in
    (match run.events.(at) with
    | Submitted { id } -> bump submitted id
    | Switch { milestone = Metrics.Dequeued { id = out; level; rank = _ }; _ }
      when at + 2 < n
           && (match (run.events.(at + 1), run.events.(at + 2)) with
              | ( Switch { milestone = Metrics.Enqueued e; _ },
                  Switch { milestone = Metrics.Swapped s; _ } ) ->
                Task.compare_id e.id s.into = 0
                && Task.compare_id s.out out = 0
                && e.level = level && s.level = level
              | _ -> false) ->
      (* The in-slot exchange of the swap primitive: the switch emits
         dequeue(out) / enqueue(into) / swap as one synchronous triple,
         and the oracle replaces in place (FIFO position preserved,
         pointers untouched). *)
      let into =
        match run.events.(at + 1) with
        | Switch { milestone = Metrics.Enqueued e; _ } -> e.id
        | _ -> assert false
      in
      checked "stamp-validity";
      (match Oracle.swap oracle ~out_id:out ~in_id:into with
      | Oracle.Swapped -> ()
      | Oracle.Not_found ->
        violate ~at:(at + 2) "stamp-validity"
          (Printf.sprintf "swap popped %s at L%d, which the oracle never queued"
             (id_to_string out) level));
      i := at + 2
    | Switch { milestone = Metrics.Ranked { id; rank }; _ } ->
      Hashtbl.replace last_rank id rank
    | Switch { milestone = Metrics.Pop_scan_started; _ } ->
      if pifo then Queue.add at scan_starts
    | Switch { milestone = Metrics.Enqueued { id; level }; int_occ } -> (
      if pifo then
        pifo_queued :=
          !pifo_queued
          @ [ (id, Option.value ~default:0 (Hashtbl.find_opt last_rank id), at) ];
      (* In-band telemetry cross-check: the switch stamped the occupancy
         its admission decision was made against; the oracle's pre-push
         size is the ground truth.  Circular levels must match exactly
         (the stamp is the repair-corrected pointer distance).  The PIFO
         occupancy gate also counts admitted entries whose probes are
         still in flight, so its stamp may exceed the model but never
         undercut it. *)
      (match int_occ with
      | None -> ()
      | Some noted ->
        checked "int-consistency";
        let model = Oracle.size oracle ~level in
        if (if pifo then noted < model else noted <> model) then
          violate ~at "int-consistency"
            (Printf.sprintf
               "enqueue of %s at L%d stamped occupancy %d but the oracle holds %d%s"
               (id_to_string id) level noted model
               (if pifo then " (a PIFO stamp may only exceed the model)" else "")));
      checked "occupancy-bound";
      match Oracle.push oracle ~level id with
      | Oracle.Pushed -> ()
      | Oracle.Overflow ->
        violate ~at "occupancy-bound"
          (Printf.sprintf "enqueue of %s at L%d beyond capacity %d" (id_to_string id)
             level schedule.Schedule.capacity))
    | Switch { milestone = Metrics.Dequeued { id; level; rank }; _ } -> (
      if pifo then pifo_dequeue ~at id ~rank;
      if not reorders then checked "fifo-order";
      checked "stamp-validity";
      match Oracle.head oracle ~level with
      | Some head when Task.compare_id head id = 0 -> ignore (Oracle.pop oracle ~level)
      | _ ->
        if Oracle.remove oracle id then begin
          if not reorders then
            violate ~at "fifo-order"
              (Printf.sprintf "dequeue of %s at L%d out of FIFO order (head was %s)"
                 (id_to_string id) level
                 (match Oracle.head oracle ~level with
                 | Some h -> id_to_string h
                 | None -> "<empty>"))
        end
        else
          violate ~at "stamp-validity"
            (Printf.sprintf
               "dequeue of %s at L%d, which the oracle never queued (stale or free \
                slot resurrected)"
               (id_to_string id) level))
    | Switch _ (* an orphan swap's pair was consumed above *) -> ()
    | Delivered { id; _ } | Returned { id } -> bump accounted id
    | Completed _ -> ());
    incr i
  done;
  (* -- end state ----------------------------------------------------------- *)
  Array.iteri
    (fun level st ->
      checked "pointer-convergence";
      let fail detail = violate ~at:n "pointer-convergence" detail in
      if run.recirc_dropped = 0 then begin
        if st.add_flag then
          fail (Printf.sprintf "L%d: add-repair flag still set after drain" level);
        if st.retrieve_flag then
          fail (Printf.sprintf "L%d: retrieve-repair flag still set after drain" level)
      end;
      let oracle_ids = Oracle.contents oracle ~level in
      if List.length st.walk <> List.length oracle_ids then
        fail
          (Printf.sprintf "L%d: queue walk holds %d tasks, oracle %d" level
             (List.length st.walk) (List.length oracle_ids))
      else if
        (let order l = if reorders then List.sort Task.compare_id l else l in
         not
           (List.for_all2
              (fun a b -> Task.compare_id a b = 0)
              (order st.walk) (order oracle_ids)))
      then
        fail
          (Printf.sprintf "L%d: queue contents diverge from oracle ([%s] vs [%s])"
             level
             (String.concat " " (List.map id_to_string st.walk))
             (String.concat " " (List.map id_to_string oracle_ids)));
      if (not st.add_flag) && not st.retrieve_flag then begin
        if st.pointer_occupancy <> List.length st.walk then
          fail
            (Printf.sprintf "L%d: pointer occupancy %d but %d stamped entries" level
               st.pointer_occupancy (List.length st.walk));
        (* A dequeue frees its slot's stamp, so a stamp outside the walk
           is a slot that a swap could still claim after its task left. *)
        if st.stamped <> List.length st.walk then
          fail
            (Printf.sprintf "L%d: %d slots hold a stamp but the walk holds %d tasks"
               level st.stamped (List.length st.walk))
      end)
    run.levels;
  (* Conservation: every copy of a submitted task must end up assigned,
     bounced back, or still queued.  Remaining copies come from the
     walk, which the pointer-convergence pass just tied to the oracle. *)
  let remaining = Hashtbl.create 64 in
  Array.iter (fun st -> List.iter (bump remaining) st.walk) run.levels;
  let count tbl id = Option.value ~default:0 (Hashtbl.find_opt tbl id) in
  Hashtbl.iter
    (fun id sub ->
      let acc = count accounted id + count remaining id in
      checked "no-duplicate-task";
      if acc > sub then
        violate ~at:n "no-duplicate-task"
          (Printf.sprintf "%s: submitted %d time(s) but accounted %d time(s)"
             (id_to_string id) sub acc);
      if strict then begin
        checked "no-lost-task";
        if acc < sub then
          violate ~at:n "no-lost-task"
            (Printf.sprintf
               "%s: submitted %d time(s) but only %d assigned/bounced/queued"
               (id_to_string id) sub acc)
      end)
    submitted;
  (* A delivery or bounce for a task never submitted is fabrication. *)
  Hashtbl.iter
    (fun id acc ->
      if count submitted id = 0 then begin
        checked "no-duplicate-task";
        violate ~at:n "no-duplicate-task"
          (Printf.sprintf "%s: accounted %d time(s) but never submitted"
             (id_to_string id) acc)
      end)
    accounted;
  checked "single-register-access";
  (match run.access_violation with
  | None -> ()
  | Some name ->
    violate ~at:n "single-register-access"
      (Printf.sprintf "register %S accessed twice in one packet traversal" name));
  checked "progress";
  (match run.out_of_budget with
  | None -> ()
  | Some budget ->
    violate ~at:n "progress"
      (Printf.sprintf "used up its budget of %d engine events with events still queued"
         budget));
  (match twin with
  | None -> ()
  | Some other ->
    checked "replication-consistency";
    if run.fingerprint <> other.fingerprint then
      violate ~at:n "replication-consistency"
        (Printf.sprintf "register fingerprints diverge (%Lx vs %Lx)" run.fingerprint
           other.fingerprint)
    else if
      Array.length run.events <> Array.length other.events
      || not (Array.for_all2 ( = ) run.events other.events)
    then violate ~at:n "replication-consistency" "event logs diverge across replicas");
  (* Sharded consistency: the same schedule executed through the LP
     data path under two partitionings (everything on one LP vs switch
     and hosts split across two).  The switch state, loss counters, and
     the switch-side event sequence are stamp-ordered and must match
     exactly; host-side events may interleave differently across
     engines, so they compare as a sorted multiset. *)
  (match sharded with
  | None -> ()
  | Some (a, b) ->
    checked "sharded-consistency";
    let fail detail = violate ~at:n "sharded-consistency" detail in
    let split (r : run) =
      let sw = ref [] and host = ref [] in
      Array.iter
        (fun ev -> if switch_side ev then sw := ev :: !sw else host := ev :: !host)
        r.events;
      (List.rev !sw, List.sort compare !host)
    in
    let sw_a, host_a = split a in
    let sw_b, host_b = split b in
    if a.fingerprint <> b.fingerprint then
      fail
        (Printf.sprintf "register fingerprints diverge across LP partitionings (%Lx vs %Lx)"
           a.fingerprint b.fingerprint)
    else if a.levels <> b.levels then
      fail "drained queue state diverges across LP partitionings"
    else if a.fabric_lost <> b.fabric_lost || a.recirc_dropped <> b.recirc_dropped
    then
      fail
        (Printf.sprintf
           "drop counters diverge across LP partitionings (lost %d vs %d, \
            recirc-dropped %d vs %d)"
           a.fabric_lost b.fabric_lost a.recirc_dropped b.recirc_dropped)
    else if a.access_violation <> b.access_violation then
      fail "access violations diverge across LP partitionings"
    else if sw_a <> sw_b then
      fail
        (Printf.sprintf
           "switch-side event sequences diverge across LP partitionings (%d vs %d \
            events)"
           (List.length sw_a) (List.length sw_b))
    else if host_a <> host_b then
      fail
        (Printf.sprintf
           "host-side event multisets diverge across LP partitionings (%d vs %d \
            events)"
           (List.length host_a) (List.length host_b)));
  {
    checks = List.map (fun inv -> (inv, Hashtbl.find checks inv)) invariants;
    violations = List.rev !violations;
    fired =
      List.filter_map
        (fun inv ->
          match Hashtbl.find fired inv with 0 -> None | n -> Some (inv, n))
        invariants;
    strict;
  }

let ok report = report.violations = []
