(* Samples live in 1,024-slot chunks: the first [record] allocates the
   first (many samplers, a level's or a fuzz execution's, never record
   one), and each chunk that fills gets a successor.  Nothing is copied
   as a sampler grows.  A doubling array left its old copy as garbage
   at every growth, and the samplers that record once per task double
   together, so where their copies fell in a major GC cycle could move
   a run's peak heap by a tenth. *)
let chunk_bits = 10
let chunk_size = 1 lsl chunk_bits

type t = {
  mutable chunks : int array array;  (* unused entries are [[||]] *)
  mutable size : int;
  mutable sorted_cache : int array option;
}

let create () = { chunks = [||]; size = 0; sorted_cache = None }

let record t v =
  let c = t.size lsr chunk_bits in
  if t.size land (chunk_size - 1) = 0 then begin
    if c = Array.length t.chunks then begin
      let spine = Array.make (Int.max 4 (2 * c)) [||] in
      Array.blit t.chunks 0 spine 0 c;
      t.chunks <- spine
    end;
    if Array.length t.chunks.(c) = 0 then t.chunks.(c) <- Array.make chunk_size 0
  end;
  t.chunks.(c).(t.size land (chunk_size - 1)) <- v;
  t.size <- t.size + 1;
  t.sorted_cache <- None

let get t i = t.chunks.(i lsr chunk_bits).(i land (chunk_size - 1))

let count t = t.size

(* Bottom-up merge sort of [a], through one scratch array of the same
   length; the result ends in [a].  Every comparison is an inline int
   compare, where [Array.sort Int.compare] calls its comparator through
   a closure on every step; samplers hold up to a few hundred thousand
   delays, sorted once at the end of a run. *)
let sort_ints (a : int array) =
  let n = Array.length a in
  let src = ref a and dst = ref (Array.make n 0) in
  let width = ref 1 in
  while !width < n do
    let s = !src and d = !dst and w = !width in
    let lo = ref 0 in
    while !lo < n do
      let mid = if !lo + w < n then !lo + w else n in
      let hi = if mid + w < n then mid + w else n in
      let i = ref !lo and j = ref mid in
      for k = !lo to hi - 1 do
        if !i < mid && (!j >= hi || s.(!i) <= s.(!j)) then begin
          d.(k) <- s.(!i);
          incr i
        end
        else begin
          d.(k) <- s.(!j);
          incr j
        end
      done;
      lo := hi
    done;
    src := d;
    dst := s;
    width := 2 * w
  done;
  if !src != a then Array.blit !src 0 a 0 n

let sorted t =
  match t.sorted_cache with
  | Some a -> a
  | None ->
    let a = Array.make t.size 0 in
    for c = 0 to ((t.size + chunk_size - 1) lsr chunk_bits) - 1 do
      let first = c lsl chunk_bits in
      Array.blit t.chunks.(c) 0 a first (Int.min chunk_size (t.size - first))
    done;
    sort_ints a;
    t.sorted_cache <- Some a;
    a

let percentile t p =
  if t.size = 0 then invalid_arg "Sampler.percentile: no samples";
  (* NaN fails both comparisons below, so reject it explicitly. *)
  if Float.is_nan p || p < 0.0 || p > 100.0 then
    invalid_arg "Sampler.percentile: p out of range";
  let a = sorted t in
  let rank = int_of_float (Float.round (p /. 100.0 *. float_of_int (t.size - 1))) in
  (* Rounding can land one past either end (e.g. p just below 100 on a
     large sample); clamp rather than trip the array bounds check. *)
  let rank = if rank < 0 then 0 else if rank >= t.size then t.size - 1 else rank in
  a.(rank)

let min t =
  if t.size = 0 then invalid_arg "Sampler.min: no samples";
  (sorted t).(0)

let max t =
  if t.size = 0 then invalid_arg "Sampler.max: no samples";
  (sorted t).(t.size - 1)

let mean t =
  if t.size = 0 then invalid_arg "Sampler.mean: no samples";
  let total = ref 0.0 in
  for i = 0 to t.size - 1 do
    total := !total +. float_of_int (get t i)
  done;
  !total /. float_of_int t.size

let cdf t ~points =
  if points <= 0 then invalid_arg "Sampler.cdf: points must be positive";
  if t.size = 0 then [||]
  else begin
    let a = sorted t in
    Array.init points (fun i ->
        let frac = float_of_int (i + 1) /. float_of_int points in
        let rank = Int.min (t.size - 1)
            (int_of_float (Float.round (frac *. float_of_int (t.size - 1)))) in
        (a.(rank), frac))
  end

let fold f init t =
  let acc = ref init in
  for i = 0 to t.size - 1 do
    acc := f !acc (get t i)
  done;
  !acc

let merge a b =
  let t = create () in
  for i = 0 to a.size - 1 do
    record t (get a i)
  done;
  for i = 0 to b.size - 1 do
    record t (get b i)
  done;
  t

let clear t =
  t.size <- 0;
  t.sorted_cache <- None
