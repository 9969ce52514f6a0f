(** Per-event hooks into the switch program.

    The hooks carry scheduler-internal events (enqueue, dequeue,
    assignment, rejection, swapping, recirculation, repair-flag trips,
    traversals a task rides without landing) with their task ids to the
    fuzz checker's event log and to {!Metrics}: its delay samples and,
    when the run attributes phases, each task's journey.  The switch
    program fires one hook per event; how often each happened is its
    own counter.  All hooks default to no-ops. *)

open Draconis_sim
open Draconis_proto

(** Which circular-queue repair flag tripped (paper §4.7). *)
type repair_flag = Add_flag | Retrieve_flag

type t = {
  on_enqueue : Task.id -> level:int -> unit;
      (** task stored in the switch queue at [level] *)
  on_dequeue : Task.id -> level:int -> rank:int -> unit;
      (** task left the switch queue (popped or swap-assigned); [rank]
          is the rank the PIFO rank store released it at, [-1] for a
          circular queue *)
  on_assign : Task.id -> node:int -> requested_at:Time.t -> unit;
      (** task_assignment emitted to an executor on [node];
          [requested_at] is when the winning task_request reached the
          switch (get_task() latency, Fig. 13) *)
  on_reject : Task.t list -> unit;  (** tasks bounced by a full queue *)
  on_noop : unit -> unit;  (** no-op assignment sent *)
  on_swap : swapped_in:Task.id -> swapped_out:Task.id -> level:int -> unit;
      (** a swap packet exchanged its carried task ([swapped_in]) for a
          pending one ([swapped_out]) at [level] (§5.1) *)
  on_recirculate : kind:string -> unit;
      (** the program produced a recirculation; [kind] names the packet
          ("swap", "resubmit", "repair-add", "repair-retrieve",
          "submission", "prio-request", "pifo-probe", "pifo-scan",
          "pifo-claim", "pifo-restart") *)
  on_repair_flag : repair_flag -> level:int -> unit;
      (** a pointer-repair flag was set at [level] (§4.7) — the queue
          enters its degraded window until the repair packet lands *)
  on_rank : Task.id -> rank:int -> unit;
      (** a PIFO-backed policy computed [rank] for a task being admitted
          (fires just before the matching [on_enqueue]) *)
  on_pop_scan : unit -> unit;
      (** a PIFO pop began a fresh rank-store scan (including restarts
          after a lost claim) *)
  on_spin : Task.id -> unit;
      (** the task rides a recirculation without landing: a multi-task
          continuation, a PIFO probe, a swap hop or a switch
          resubmission *)
  on_swap_start : Task.id -> unit;
      (** a popped task failed the policy check and leaves on a swap
          packet (§5.1) *)
}

val default : t

(** ["add"] or ["retrieve"]. *)
val repair_flag_name : repair_flag -> string
