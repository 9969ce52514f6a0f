(* Each mark is one word: its time, recorded in a [Sampler], whose
   1,024-slot chunks are allocated straight in the major heap, so a mark
   is never promoted and nothing is copied as the meter grows. *)
type t = {
  times : Sampler.t;
  mutable first : int;  (* the first mark's time, once there is one *)
  mutable last : int;
}

let create () = { times = Sampler.create (); first = 0; last = 0 }

let mark t ~now =
  if Sampler.count t.times = 0 then t.first <- now;
  t.last <- now;
  Sampler.record t.times now

let total t = Sampler.count t.times

(* With no mark, [first] and [last] are both 0. *)
let rate_per_sec t =
  let span = t.last - t.first in
  if span <= 0 then 0.0 else float_of_int (total t) /. (float_of_int span /. 1e9)

let first_after t ~after =
  Sampler.fold
    (fun best time ->
      if time < after then best
      else
        match best with
        | Some b when b <= time -> best
        | Some _ | None -> Some time)
    None t.times

let rate_over t ~duration =
  if duration <= 0 then invalid_arg "Meter.rate_over: non-positive duration";
  float_of_int (total t) /. (float_of_int duration /. 1e9)

let timeline t ~bucket =
  if bucket <= 0 then invalid_arg "Meter.timeline: non-positive bucket";
  (* Sort the marks' buckets, then count each run of equal buckets. *)
  let keys = Array.make (total t) 0 in
  let (_ : int) =
    Sampler.fold
      (fun i time ->
        keys.(i) <- time / bucket;
        i + 1)
      0 t.times
  in
  Array.sort Int.compare keys;
  let rec count i acc =
    if i < 0 then acc
    else
      match acc with
      | (b, n) :: rest when b = keys.(i) -> count (i - 1) ((b, n + 1) :: rest)
      | _ -> count (i - 1) ((keys.(i), 1) :: acc)
  in
  Array.of_list (count (Array.length keys - 1) [])

let clear t =
  Sampler.clear t.times;
  t.first <- 0;
  t.last <- 0
