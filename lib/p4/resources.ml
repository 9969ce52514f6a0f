type profile = {
  name : string;
  stages : int;
  register_bits_per_stage : int;
  arrays_per_stage : int;
  overhead_stages : int;
}

(* 32-bit words per queue entry: UID, JID, TID, FN_ID, FN_PAR lo/hi,
   TPROPS tag + payload lo/hi, client address, and the locality skip
   counter — one parallel register array per word.  Each queue also
   allocates five control arrays (validity stamps, two pointers, two
   repair flags). *)
let words_per_entry = 11

(* Budgets chosen so the paper's reported capacities fall out: a 164K-task
   FCFS queue and 4 priority levels on their Tofino 1; ~1M tasks and 12
   levels estimated on Tofino 2 (more stages and stateful-ALU density). *)
let tofino1 =
  {
    name = "Tofino 1";
    stages = 12;
    register_bits_per_stage = 164_000 * 64;
    arrays_per_stage = 8;
    overhead_stages = 3;
  }

let tofino2 =
  {
    name = "Tofino 2";
    stages = 20;
    register_bits_per_stage = 1_000_000 * 32;
    arrays_per_stage = 12;
    overhead_stages = 3;
  }

(* Each per-level queue also allocates the stamp array plus the two
   pointer and two repair-flag registers; the flags and pointers are
   negligible in bits but occupy stateful-ALU slots alongside the entry
   arrays (the count matches Circular_queue.registers exactly). *)
let control_arrays_per_level = 5

let usable_stages p = p.stages - p.overhead_stages

let max_queue_entries p ~priority_levels =
  if priority_levels < 1 then
    invalid_arg "Resources.max_queue_entries: priority_levels must be >= 1";
  (* Each level needs [words_per_entry] entry arrays plus control arrays;
     arrays from all levels share the usable stages. *)
  let arrays_needed = priority_levels * (words_per_entry + control_arrays_per_level) in
  let slots = usable_stages p * p.arrays_per_stage in
  if arrays_needed > slots then 0
  else begin
    (* An entry array must fit in one stage; the binding constraint is
       the most loaded stage.  With level-major placement the heaviest
       stage hosts ceil(arrays_needed / usable_stages) arrays sharing
       its SRAM. *)
    let per_stage_arrays =
      (arrays_needed + usable_stages p - 1) / usable_stages p
    in
    let per_stage_arrays = max 1 per_stage_arrays in
    p.register_bits_per_stage / (32 * per_stage_arrays)
  end

let max_priority_levels p =
  let slots = usable_stages p * p.arrays_per_stage in
  slots / (words_per_entry + control_arrays_per_level)

let fits p ~queue_entries ~priority_levels =
  priority_levels >= 1
  && priority_levels <= max_priority_levels p
  && queue_entries <= max_queue_entries p ~priority_levels

let report p ~priority_levels =
  let entries = max_queue_entries p ~priority_levels in
  Printf.sprintf "%s: %d priority level(s) -> up to %d tasks/level (max %d levels)"
    p.name priority_levels entries (max_priority_levels p)
