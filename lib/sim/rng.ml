(* The splitmix64 state lives unboxed in an 8-byte buffer: a mutable
   [int64] record field would box a fresh value on every draw.  The
   native-endian primitives compile to a plain load and store. *)
type t = Bytes.t

external get_state : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set_state : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

let golden_gamma = 0x9E3779B97F4A7C15L

let[@inline] mix64 z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let of_state s =
  let t = Bytes.create 8 in
  set_state t 0 s;
  t

let create ~seed = of_state (mix64 (Int64.of_int seed))

(* Inlined into every draw below, so the 64-bit intermediate never
   leaves a register. *)
let[@inline] next t =
  let s = Int64.add (get_state t 0) golden_gamma in
  set_state t 0 s;
  mix64 s

let bits64 t = next t
let split t = of_state (next t)

let int t bound =
  if bound <= 0 then invalid_arg "Rng.int: bound must be positive";
  (* Rejection-free modulo is fine here: bounds are tiny relative to 2^63,
     so bias is negligible for simulation purposes. *)
  Int64.to_int (Int64.rem (Int64.shift_right_logical (next t) 1) (Int64.of_int bound))

let float t =
  (* 53 random bits into [0,1). *)
  Int64.to_float (Int64.shift_right_logical (next t) 11) *. 0x1.0p-53

let bool t = Int64.logand (next t) 1L = 1L
