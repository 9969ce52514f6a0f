open Draconis_sim
open Draconis_stats

type key = int * int * int

let flag_swap = 1
let flag_repair = 2
let flag_resubmit = 4
let flag_reject = 8

let flag_names =
  [ (flag_swap, "swap"); (flag_repair, "repair"); (flag_resubmit, "resubmit");
    (flag_reject, "reject") ]

let flags_to_string flags =
  let names =
    List.filter_map
      (fun (bit, name) -> if flags land bit <> 0 then Some name else None)
      flag_names
  in
  if names = [] then "-" else String.concat "+" names

type breakdown = {
  key : key;
  total : Time.t;
  sched : Time.t;  (* -1 when the task never reached an executor start *)
  phases : int array;  (* Phase.count buckets, ns *)
  flags : int;
}

(* The slowest-task list keeps this many breakdowns. *)
let top_k = 10

type t = {
  samplers : Sampler.t array;
  total : Sampler.t;
  phase_sums : int array;
  mutable total_sum : int;
  mutable sealed : int;
  mutable incomplete : int;
  mutable mismatches : int;
  critical : int array;  (* tasks whose dominant phase is i *)
  mutable swapped : int;
  mutable repaired : int;
  mutable resubmitted : int;
  mutable rejected : int;
  mutable top : breakdown list;  (* sorted: total desc, then key asc *)
}

let create () =
  {
    samplers = Array.init Phase.count (fun _ -> Sampler.create ());
    total = Sampler.create ();
    phase_sums = Array.make Phase.count 0;
    total_sum = 0;
    sealed = 0;
    incomplete = 0;
    mismatches = 0;
    critical = Array.make Phase.count 0;
    swapped = 0;
    repaired = 0;
    resubmitted = 0;
    rejected = 0;
    top = [];
  }

let compare_breakdown (a : breakdown) (b : breakdown) =
  match compare b.total a.total with 0 -> compare a.key b.key | c -> c

let insert_top t b =
  let rec insert = function
    | [] -> [ b ]
    | x :: rest -> if compare_breakdown b x < 0 then b :: x :: rest else x :: insert rest
  in
  let top = insert t.top in
  t.top <- (if List.length top > top_k then List.filteri (fun i _ -> i < top_k) top
            else top)

let dominant phases =
  let best = ref 0 in
  Array.iteri (fun i v -> if v > phases.(!best) then best := i) phases;
  !best

let add t (b : breakdown) =
  t.sealed <- t.sealed + 1;
  let sum = Array.fold_left ( + ) 0 b.phases in
  if sum <> b.total then t.mismatches <- t.mismatches + 1;
  Array.iteri
    (fun i v ->
      Sampler.record t.samplers.(i) v;
      t.phase_sums.(i) <- t.phase_sums.(i) + v)
    b.phases;
  Sampler.record t.total b.total;
  t.total_sum <- t.total_sum + b.total;
  t.critical.(dominant b.phases) <- t.critical.(dominant b.phases) + 1;
  if b.flags land flag_swap <> 0 then t.swapped <- t.swapped + 1;
  if b.flags land flag_repair <> 0 then t.repaired <- t.repaired + 1;
  if b.flags land flag_resubmit <> 0 then t.resubmitted <- t.resubmitted + 1;
  if b.flags land flag_reject <> 0 then t.rejected <- t.rejected + 1;
  insert_top t b

let note_incomplete t n = t.incomplete <- t.incomplete + n

let sealed t = t.sealed
let incomplete t = t.incomplete
let exact t = t.mismatches = 0
let total_sampler t = t.total
let phase_sum t phase = t.phase_sums.(Phase.index phase)
let total_sum t = t.total_sum
let top t = t.top

let anomalies t =
  [ ("swapped", t.swapped); ("repaired", t.repaired);
    ("resubmitted", t.resubmitted); ("rejected", t.rejected) ]

(* Per-phase (name, p50, p99) for harness report columns; empty until a
   task has been sealed. *)
let phase_percentiles t =
  if t.sealed = 0 then []
  else
    List.map
      (fun phase ->
        let s = t.samplers.(Phase.index phase) in
        (Phase.name phase, Sampler.percentile s 50.0, Sampler.percentile s 99.0))
      Phase.all

let critical_counts t =
  List.map (fun phase -> (Phase.name phase, t.critical.(Phase.index phase))) Phase.all

(* -- JSON fragment for the metrics dump ------------------------------------ *)

let json_float f =
  if Float.is_nan f || Float.abs f = Float.infinity then "0"
  else if Float.is_integer f && Float.abs f < 1e15 then Printf.sprintf "%.0f" f
  else Printf.sprintf "%g" f

let phase_json s sum =
  if Sampler.count s = 0 then Printf.sprintf "{\"count\":0,\"sum_ns\":%d}" sum
  else
    Printf.sprintf
      "{\"count\":%d,\"sum_ns\":%d,\"mean_ns\":%s,\"p50_ns\":%d,\"p99_ns\":%d,\"max_ns\":%d}"
      (Sampler.count s) sum
      (json_float (Sampler.mean s))
      (Sampler.percentile s 50.0)
      (Sampler.percentile s 99.0)
      (Sampler.max s)

let breakdown_json (b : breakdown) =
  let uid, jid, tid = b.key in
  Printf.sprintf
    "{\"task\":\"%d.%d.%d\",\"total_ns\":%d,\"sched_ns\":%d,\"flags\":\"%s\",\"phases\":{%s}}"
    uid jid tid b.total b.sched (flags_to_string b.flags)
    (String.concat ","
       (List.map
          (fun phase ->
            Printf.sprintf "\"%s\":%d" (Phase.name phase) b.phases.(Phase.index phase))
          Phase.all))

let to_json t =
  Printf.sprintf
    "{\"tasks\":%d,\"incomplete\":%d,\"exact\":%b,\"total_sum_ns\":%d,\
     \"phases\":{%s},\"critical\":{%s},\"anomalies\":{%s},\"top\":[%s]}"
    t.sealed t.incomplete (exact t) t.total_sum
    (String.concat ","
       (List.map
          (fun phase ->
            let i = Phase.index phase in
            Printf.sprintf "\"%s\":%s" (Phase.name phase)
              (phase_json t.samplers.(i) t.phase_sums.(i)))
          Phase.all))
    (String.concat ","
       (List.map (fun (name, n) -> Printf.sprintf "\"%s\":%d" name n) (critical_counts t)))
    (String.concat ","
       (List.map (fun (name, n) -> Printf.sprintf "\"%s\":%d" name n) (anomalies t)))
    (String.concat "," (List.map breakdown_json t.top))
