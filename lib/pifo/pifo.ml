open Draconis_p4
module Obs = Draconis_obs

let seq_bits = 20
let seq_limit = 1 lsl seq_bits
let mask32 = 0xFFFFFFFF

type t = {
  name : string;
  capacity : int;
  scan_width : int;
  cells_per_bank : int;
  word_count : int;
  max_rank : int;
  banks : Register.t array;  (* scan_width arrays of cells_per_bank 64-bit cells *)
  words : Register.t array;  (* word_count arrays of capacity 32-bit cells *)
  occ : Register.t;
  seq : Register.t;
  epoch : Register.t;
  mutable renumbers : int;
  mutable rank_clamps : int;
}

let create ~name ~capacity ~scan_width ~word_count ?(max_rank = mask32) () =
  if capacity <= 0 then invalid_arg "Pifo.create: capacity must be positive";
  if scan_width <= 0 then invalid_arg "Pifo.create: scan_width must be positive";
  if capacity mod scan_width <> 0 then
    invalid_arg "Pifo.create: capacity must be a multiple of scan_width";
  if capacity > seq_limit / 4 then
    invalid_arg "Pifo.create: capacity too large for the tie-break stamp width";
  if word_count <= 0 then invalid_arg "Pifo.create: word_count must be positive";
  if max_rank < 1 || max_rank > mask32 then
    invalid_arg "Pifo.create: max_rank must be in [1, 2^32-1]";
  let cells_per_bank = capacity / scan_width in
  {
    name;
    capacity;
    scan_width;
    cells_per_bank;
    word_count;
    max_rank;
    banks =
      Array.init scan_width (fun k ->
          (* 64-bit cells: rank and tie-break stamp move in one access
             (the Tofino paired register lane). *)
          Register.create
            ~name:(Printf.sprintf "%s.rank%d" name k)
            ~size:cells_per_bank ~cell_bits:64 ());
    words =
      Array.init word_count (fun j ->
          Register.create ~name:(Printf.sprintf "%s.word%d" name j) ~size:capacity ());
    occ = Register.create ~name:(name ^ ".occ") ~size:1 ();
    seq = Register.create ~name:(name ^ ".seq") ~size:1 ();
    epoch = Register.create ~name:(name ^ ".epoch") ~size:1 ();
    renumbers = 0;
    rank_clamps = 0;
  }

let name t = t.name
let capacity t = t.capacity
let scan_width t = t.scan_width
let word_count t = t.word_count
let max_rank t = t.max_rank
let probe_budget t = 2 * t.cells_per_bank

let registers t =
  Array.to_list t.banks @ Array.to_list t.words @ [ t.occ; t.seq; t.epoch ]

let slot_of ~cells_per_bank ~bank ~row = (bank * cells_per_bank) + row
let pack ~rank ~seq = ((rank lsl seq_bits) lor seq) + 1
let rank_of_packed packed = (packed - 1) lsr seq_bits
let seq_of_packed packed = (packed - 1) land (seq_limit - 1)

(* -- admission -------------------------------------------------------------- *)

type probe = { packed : int; payload : int array; row : int; attempts : int }

type admit_result =
  | Admitted of { slot : int; packed : int }
  | Probing of probe
  | Full

(* One probe row: a compare-free-and-stamp on one cell of each bank.
   Each bank is a distinct register array, so one traversal may touch
   all of them; banks after the first successful claim are predicated
   off (their stateful ALU does not fire — no access). *)
let probe_row t (ctx : Packet_ctx.t) ~row ~packed ~payload =
  let claimed = ref (-1) in
  let k = ref 0 in
  while !claimed < 0 && !k < t.scan_width do
    let old = Register.compare_and_swap t.banks.(!k) ctx row ~expected:0 ~desired:packed in
    if old = 0 then claimed := !k;
    incr k
  done;
  if !claimed < 0 then begin
    ctx.telemetry.probe <- Obs.Int_telemetry.Probe_miss;
    None
  end
  else begin
    (* INT: the claimed bank is a by-product of the probe loop itself —
       stamping it reuses the outcome, no extra access. *)
    ctx.telemetry.bank <- !claimed;
    ctx.telemetry.probe <- Obs.Int_telemetry.Probe_hit;
    let slot = slot_of ~cells_per_bank:t.cells_per_bank ~bank:!claimed ~row in
    (* The payload rides later stages: one write per word array. *)
    for j = 0 to t.word_count - 1 do
      Register.write t.words.(j) ctx slot payload.(j)
    done;
    Some slot
  end

let admit t (ctx : Packet_ctx.t) ~rank ~words =
  if Array.length words <> t.word_count then
    invalid_arg "Pifo.admit: wrong payload word count";
  Array.iter
    (fun w -> if w < 0 || w > mask32 then invalid_arg "Pifo.admit: word out of u32 range")
    words;
  let rank =
    if rank < 0 then 0
    else if rank > t.max_rank then begin
      t.rank_clamps <- t.rank_clamps + 1;
      t.max_rank
    end
    else rank
  in
  (* Occupancy gate: an atomic bounded increment.  Success guarantees a
     free cell exists somewhere, so a gated probe always lands. *)
  let occ_old = Register.read_and_increment_below t.occ ctx 0 ~limit:t.capacity in
  if occ_old >= t.capacity then Full
  else begin
    (* INT: [occ_old] is the gate's own read — occupancy before this
       admission, in hand already. *)
    ctx.telemetry.occupancy <- occ_old;
    let s = Register.read_and_increment t.seq ctx 0 in
    (* Defensive: renumbering keeps the counter far from the limit; if
       it ever saturates, stamps collide rather than wrap (a wrapped
       stamp would jump the FIFO order). *)
    let s = if s >= seq_limit then seq_limit - 1 else s in
    let packed = pack ~rank ~seq:s in
    let payload = Array.copy words in
    match probe_row t ctx ~row:0 ~packed ~payload with
    | Some slot -> Admitted { slot; packed }
    | None -> Probing { packed; payload; row = 1; attempts = 1 }
  end

let probe t ctx p =
  if p.attempts >= probe_budget t then begin
    (* Budget exhausted (possible only under sustained claim races):
       release the occupancy gate and reject. *)
    ignore (Register.read_and_decrement_above t.occ ctx 0 ~floor:0);
    Full
  end
  else begin
    let row = p.row mod t.cells_per_bank in
    match probe_row t ctx ~row ~packed:p.packed ~payload:p.payload with
    | Some slot -> Admitted { slot; packed = p.packed }
    | None -> Probing { p with row = row + 1; attempts = p.attempts + 1 }
  end

(* -- pop -------------------------------------------------------------------- *)

type scan = { next_row : int; best_slot : int; best_packed : int; scan_epoch : int }
type candidate = { cand_slot : int; cand_packed : int; cand_epoch : int }

type scan_result =
  | Empty
  | Scanning of scan
  | Ready of candidate
  | Drained


(* Read one row across all banks, folding the minimum into the carried
   best.  One access per bank register: legal in a single traversal. *)
let scan_row t ctx ~row ~best_slot ~best_packed =
  let best_slot = ref best_slot and best_packed = ref best_packed in
  for k = 0 to t.scan_width - 1 do
    let v = Register.read t.banks.(k) ctx row in
    if v <> 0 && (!best_packed = 0 || v < !best_packed) then begin
      best_packed := v;
      best_slot := slot_of ~cells_per_bank:t.cells_per_bank ~bank:k ~row
    end
  done;
  (!best_slot, !best_packed)

let finish_or_continue t ~next_row ~best_slot ~best_packed ~scan_epoch =
  if next_row >= t.cells_per_bank then
    if best_packed = 0 then Drained
    else Ready { cand_slot = best_slot; cand_packed = best_packed; cand_epoch = scan_epoch }
  else Scanning { next_row; best_slot; best_packed; scan_epoch }

let note_best_bank t (ctx : Packet_ctx.t) best_slot =
  if best_slot >= 0 then ctx.telemetry.bank <- best_slot / t.cells_per_bank

let scan_start t (ctx : Packet_ctx.t) =
  let occ = Register.read t.occ ctx 0 in
  ctx.telemetry.occupancy <- occ;
  if occ = 0 then Empty
  else begin
    let scan_epoch = Register.read t.epoch ctx 0 in
    let best_slot, best_packed = scan_row t ctx ~row:0 ~best_slot:(-1) ~best_packed:0 in
    note_best_bank t ctx best_slot;
    finish_or_continue t ~next_row:1 ~best_slot ~best_packed ~scan_epoch
  end

let scan_step t ctx s =
  let best_slot, best_packed =
    scan_row t ctx ~row:s.next_row ~best_slot:s.best_slot ~best_packed:s.best_packed
  in
  note_best_bank t ctx best_slot;
  finish_or_continue t ~next_row:(s.next_row + 1) ~best_slot ~best_packed
    ~scan_epoch:s.scan_epoch

type claim_result =
  | Claimed of { slot : int; packed : int; words : int array }
  | Lost

let claim t (ctx : Packet_ctx.t) c =
  let ep = Register.read t.epoch ctx 0 in
  if ep <> c.cand_epoch then begin
    ctx.telemetry.probe <- Obs.Int_telemetry.Claim_lost;
    Lost
  end
  else begin
    let bank = c.cand_slot / t.cells_per_bank in
    let row = c.cand_slot mod t.cells_per_bank in
    ctx.telemetry.bank <- bank;
    (* Compare-and-free: succeeds only if the cell still holds exactly
       the scanned stamp (another claimer or a renumber loses us). *)
    let old =
      Register.compare_and_swap t.banks.(bank) ctx row ~expected:c.cand_packed ~desired:0
    in
    if old <> c.cand_packed then begin
      ctx.telemetry.probe <- Obs.Int_telemetry.Claim_lost;
      Lost
    end
    else begin
      ctx.telemetry.probe <- Obs.Int_telemetry.Claim_won;
      ignore (Register.read_and_decrement_above t.occ ctx 0 ~floor:0);
      let words = Array.make t.word_count 0 in
      for j = 0 to t.word_count - 1 do
        words.(j) <- Register.read t.words.(j) ctx c.cand_slot
      done;
      Claimed { slot = c.cand_slot; packed = c.cand_packed; words }
    end
  end

(* -- control plane ----------------------------------------------------------- *)

let occupancy t = Register.peek t.occ 0

(* Renumber while the counter still has [2 * capacity] headroom: at most
   [capacity] stamps can be consumed by packets already past the gate
   while the switch CPU runs. *)
let needs_renumber t = Register.peek t.seq 0 >= seq_limit - (2 * t.capacity)

let live_cells t =
  let acc = ref [] in
  for k = 0 to t.scan_width - 1 do
    for row = 0 to t.cells_per_bank - 1 do
      let v = Register.peek t.banks.(k) row in
      if v <> 0 then acc := (k, row, v) :: !acc
    done
  done;
  List.sort (fun (_, _, a) (_, _, b) -> compare a b) !acc

let renumber t =
  let live = live_cells t in
  List.iteri
    (fun i (bank, row, v) ->
      let rank = rank_of_packed v in
      Register.poke t.banks.(bank) row (pack ~rank ~seq:i))
    live;
  Register.poke t.seq 0 (List.length live);
  Register.poke t.epoch 0 (Register.peek t.epoch 0 + 1);
  t.renumbers <- t.renumbers + 1

let renumbers t = t.renumbers
let rank_clamps t = t.rank_clamps

let peek_slots t =
  List.map
    (fun (bank, row, v) ->
      ( slot_of ~cells_per_bank:t.cells_per_bank ~bank ~row,
        rank_of_packed v,
        seq_of_packed v ))
    (live_cells t)

let peek_payloads t =
  List.map
    (fun (bank, row, _) ->
      let slot = slot_of ~cells_per_bank:t.cells_per_bank ~bank ~row in
      Array.init t.word_count (fun j -> Register.peek t.words.(j) slot))
    (live_cells t)
