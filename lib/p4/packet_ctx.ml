exception Access_violation of string

type touched = { mutable ids : int array; mutable count : int }

module Int_t = Draconis_obs.Int_telemetry

type telemetry = {
  mutable stage : Int_t.stage;
  mutable level : int;
  mutable occupancy : int;
  mutable bank : int;
  mutable probe : Int_t.probe_outcome;
}

type t = { mutable stamp : int; touched : touched; telemetry : telemetry }

(* 30 bits of context id over 32 of traversal number fill the 62-bit
   non-negative int range.  [bench micro]'s queue rows create a context
   per operation, millions per row, against ~10^9 ids.  A pipeline
   admits at most one packet per simulated ns (recirculations add one
   per 100 ns), so its one context needs over 4 simulated seconds at
   line rate to reach 2^32 traversals; the longest experiment horizon
   is 2 s. *)
let traversal_bits = 32
let last_traversal = (1 lsl traversal_bits) - 1
let id_limit = 1 lsl (62 - traversal_bits)

(* Atomic: contexts are created from whichever domain runs a pipeline,
   and stamps must stay unique across all of them. *)
let next_id = Atomic.make 1

let create () =
  let id = Atomic.fetch_and_add next_id 1 in
  if id >= id_limit then failwith "Packet_ctx.create: context ids exhausted";
  {
    stamp = id lsl traversal_bits;
    touched = { ids = Array.make 16 0; count = 0 };
    telemetry =
      { stage = Int_t.Forward; level = -1; occupancy = -1; bank = -1;
        probe = Int_t.No_probe };
  }

let reset t =
  if t.stamp land last_traversal = last_traversal then
    failwith "Packet_ctx.reset: traversal numbers exhausted";
  t.stamp <- t.stamp + 1;
  t.touched.count <- 0;
  let f = t.telemetry in
  f.stage <- Int_t.Forward;
  f.level <- -1;
  f.occupancy <- -1;
  f.bank <- -1;
  f.probe <- Int_t.No_probe

let access_count t = t.touched.count
