exception Access_violation of string

(* A traversal touches at most a few dozen registers; a flat array with
   linear scan beats a hash table on this hot path. *)
type t = { mutable accessed : int array; mutable count : int }

let create () = { accessed = Array.make 16 0; count = 0 }
let reset t = t.count <- 0

(* Top-level, so a lookup allocates no closure. *)
let rec scan (accessed : int array) count (reg_id : int) i =
  i < count && (Array.unsafe_get accessed i = reg_id || scan accessed count reg_id (i + 1))

let mem t reg_id = scan t.accessed t.count reg_id 0

let mark_access t ~reg_id ~reg_name =
  if mem t reg_id then raise (Access_violation reg_name);
  if t.count >= Array.length t.accessed then begin
    let bigger = Array.make (2 * Array.length t.accessed) 0 in
    Array.blit t.accessed 0 bigger 0 t.count;
    t.accessed <- bigger
  end;
  t.accessed.(t.count) <- reg_id;
  t.count <- t.count + 1

let accessed t ~reg_id = mem t reg_id
let access_count t = t.count
