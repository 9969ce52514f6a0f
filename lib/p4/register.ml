type t = {
  id : int;
  name : string;
  cell_bits : int;
  cells : int array;
  mutable accesses : int;
}

(* Atomic: registers are created from whichever domain builds the
   cluster, and ids must stay globally unique for access tracking. *)
let next_id = Atomic.make 0

let create ~name ~size ?(cell_bits = 32) () =
  if size <= 0 then invalid_arg "Register.create: size must be positive";
  (* Tofino stateful ALUs address 8/16/32-bit cells or a paired 64-bit
     lane (two 32-bit words read/written as one access). *)
  if cell_bits <> 8 && cell_bits <> 16 && cell_bits <> 32 && cell_bits <> 64 then
    invalid_arg "Register.create: cell_bits must be 8, 16, 32 or 64";
  {
    id = 1 + Atomic.fetch_and_add next_id 1;
    name;
    cell_bits;
    cells = Array.make size 0;
    accesses = 0;
  }

let name t = t.name
let size t = Array.length t.cells
let cell_bits t = t.cell_bits
let bits t = t.cell_bits * Array.length t.cells

let check_bounds t i =
  if i < 0 || i >= Array.length t.cells then
    invalid_arg (Printf.sprintf "Register %s: index %d out of bounds [0,%d)"
                   t.name i (Array.length t.cells))

let access t ctx =
  Packet_ctx.mark_access ctx ~reg_id:t.id ~reg_name:t.name;
  t.accesses <- t.accesses + 1

let read t ctx i =
  check_bounds t i;
  access t ctx;
  t.cells.(i)

let write t ctx i v =
  check_bounds t i;
  access t ctx;
  t.cells.(i) <- v

let read_modify_write t ctx i f =
  check_bounds t i;
  access t ctx;
  let old = t.cells.(i) in
  t.cells.(i) <- f old;
  old

(* The fixed-function RMWs below are what the hot paths use: each is
   the same single access as [read_modify_write], without a closure. *)
let exchange t ctx i v =
  check_bounds t i;
  access t ctx;
  let old = t.cells.(i) in
  t.cells.(i) <- v;
  old

let read_and_increment t ctx i =
  check_bounds t i;
  access t ctx;
  let old = t.cells.(i) in
  t.cells.(i) <- old + 1;
  old

let read_and_advance t ctx i ~modulus =
  check_bounds t i;
  access t ctx;
  let old = t.cells.(i) in
  t.cells.(i) <- (if old + 1 >= modulus then 0 else old + 1);
  old

let peek t i =
  check_bounds t i;
  t.cells.(i)

let poke t i v =
  check_bounds t i;
  t.cells.(i) <- v

let fill t v = Array.fill t.cells 0 (Array.length t.cells) v

let access_count t = t.accesses
