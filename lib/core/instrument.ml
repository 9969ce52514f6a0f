open Draconis_sim
open Draconis_proto

type repair_flag = Add_flag | Retrieve_flag

type t = {
  on_enqueue : Task.id -> level:int -> unit;
  on_dequeue : Task.id -> level:int -> rank:int -> unit;
  on_assign : Task.id -> node:int -> requested_at:Time.t -> unit;
  on_reject : Task.t list -> unit;
  on_noop : unit -> unit;
  on_swap : swapped_in:Task.id -> swapped_out:Task.id -> level:int -> unit;
  on_recirculate : kind:string -> unit;
  on_repair_flag : repair_flag -> level:int -> unit;
  on_rank : Task.id -> rank:int -> unit;
  on_pop_scan : unit -> unit;
  on_spin : Task.id -> unit;
  on_swap_start : Task.id -> unit;
}

let default =
  {
    on_enqueue = (fun _ ~level:_ -> ());
    on_dequeue = (fun _ ~level:_ ~rank:_ -> ());
    on_assign = (fun _ ~node:_ ~requested_at:_ -> ());
    on_reject = (fun _ -> ());
    on_noop = (fun () -> ());
    on_swap = (fun ~swapped_in:_ ~swapped_out:_ ~level:_ -> ());
    on_recirculate = (fun ~kind:_ -> ());
    on_repair_flag = (fun _ ~level:_ -> ());
    on_rank = (fun _ ~rank:_ -> ());
    on_pop_scan = (fun () -> ());
    on_spin = (fun _ -> ());
    on_swap_start = (fun _ -> ());
  }

let repair_flag_name = function Add_flag -> "add" | Retrieve_flag -> "retrieve"
