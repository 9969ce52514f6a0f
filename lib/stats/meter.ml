type t = {
  mutable total : int;
  mutable first : int option;
  mutable last : int;
  mutable marks : (int * int) list; (* (time, weight), newest first *)
}

let create () = { total = 0; first = None; last = 0; marks = [] }

let mark t ?(weight = 1) ~now () =
  t.total <- t.total + weight;
  (match t.first with None -> t.first <- Some now | Some _ -> ());
  t.last <- now;
  t.marks <- (now, weight) :: t.marks

let total t = t.total

let rate_per_sec t =
  match t.first with
  | None -> 0.0
  | Some first ->
    let span = t.last - first in
    if span <= 0 then 0.0 else float_of_int t.total /. (float_of_int span /. 1e9)

let first_after t ~after =
  List.fold_left
    (fun best (time, _) ->
      if time < after then best
      else
        match best with
        | Some b when b <= time -> best
        | Some _ | None -> Some time)
    None t.marks

let rate_over t ~duration =
  if duration <= 0 then invalid_arg "Meter.rate_over: non-positive duration";
  float_of_int t.total /. (float_of_int duration /. 1e9)

let timeline t ~bucket =
  if bucket <= 0 then invalid_arg "Meter.timeline: non-positive bucket";
  match t.first with
  | None -> [||]
  | Some _ ->
    (* Sort the marks by bucket, then sum each run of equal buckets. *)
    let marks = Array.of_list t.marks in
    let key (time, _) = time / bucket in
    Array.stable_sort (fun a b -> Int.compare (key a) (key b)) marks;
    let rec sum i acc =
      if i < 0 then acc
      else
        let b = key marks.(i) and w = snd marks.(i) in
        match acc with
        | (b', w') :: rest when b' = b -> sum (i - 1) ((b, w + w') :: rest)
        | _ -> sum (i - 1) ((b, w) :: acc)
    in
    Array.of_list (sum (Array.length marks - 1) [])

let clear t =
  t.total <- 0;
  t.first <- None;
  t.last <- 0;
  t.marks <- []
