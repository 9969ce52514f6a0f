type t = Rng.t -> Time.t

let constant d _rng = d

let uniform ~lo ~hi rng =
  if hi < lo then invalid_arg "Dist.uniform: hi < lo";
  lo + Rng.int rng (hi - lo + 1)

let exponential ~mean rng =
  let u = 1.0 -. Rng.float rng in
  (* u in (0,1]; -mean * ln(u) is Exp(1/mean). *)
  int_of_float (Float.round (-.float_of_int mean *. log u))

let bimodal (d1, p1) d2 rng = if Rng.float rng < p1 then d1 else d2

let choice cases rng =
  let u = Rng.float rng in
  let rec pick acc = function
    | [] -> invalid_arg "Dist.choice: empty case list"
    | [ (d, _) ] -> d
    | (d, p) :: rest -> if u < acc +. p then d else pick (acc +. p) rest
  in
  pick 0.0 cases

let lognormal ~mu ~sigma rng =
  (* Box-Muller transform. *)
  let u1 = 1.0 -. Rng.float rng and u2 = Rng.float rng in
  let z = sqrt (-2.0 *. log u1) *. cos (2.0 *. Float.pi *. u2) in
  Int.max 0 (int_of_float (Float.round (exp (mu +. (sigma *. z)))))

let pareto ~scale ~alpha rng =
  let u = 1.0 -. Rng.float rng in
  Int.max scale (int_of_float (Float.round (float_of_int scale /. (u ** (1.0 /. alpha)))))

let scale f d rng = Int.max 0 (int_of_float (Float.round (f *. float_of_int (d rng))))

let mean_estimate d rng ~n =
  if n <= 0 then invalid_arg "Dist.mean_estimate: n must be positive";
  let total = ref 0.0 in
  for _ = 1 to n do
    total := !total +. float_of_int (d rng)
  done;
  !total /. float_of_int n
