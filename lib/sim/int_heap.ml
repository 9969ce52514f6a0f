type 'v t = {
  init_capacity : int;
  mutable keys : int array;
  mutable vals : 'v array;
  mutable size : int;
}

let create ?(capacity = 256) () =
  { init_capacity = Int.max 1 capacity; keys = [||]; vals = [||]; size = 0 }

let length h = h.size
let is_empty h = h.size = 0

let grow h v =
  (* The value array starts empty because we have no dummy element; the
     first push seeds it with the pushed value. *)
  if Array.length h.keys = 0 then begin
    h.keys <- Array.make h.init_capacity 0;
    h.vals <- Array.make h.init_capacity v
  end
  else begin
    let n = Array.length h.keys in
    let keys = Array.make (2 * n) 0 in
    let vals = Array.make (2 * n) h.vals.(0) in
    Array.blit h.keys 0 keys 0 n;
    Array.blit h.vals 0 vals 0 n;
    h.keys <- keys;
    h.vals <- vals
  end

let rec sift_up h i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if h.keys.(i) < h.keys.(parent) then begin
      let k = h.keys.(i) and v = h.vals.(i) in
      h.keys.(i) <- h.keys.(parent);
      h.vals.(i) <- h.vals.(parent);
      h.keys.(parent) <- k;
      h.vals.(parent) <- v;
      sift_up h parent
    end
  end

let rec sift_down h i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let smallest = ref i in
  if l < h.size && h.keys.(l) < h.keys.(!smallest) then smallest := l;
  if r < h.size && h.keys.(r) < h.keys.(!smallest) then smallest := r;
  if !smallest <> i then begin
    let j = !smallest in
    let k = h.keys.(i) and v = h.vals.(i) in
    h.keys.(i) <- h.keys.(j);
    h.vals.(i) <- h.vals.(j);
    h.keys.(j) <- k;
    h.vals.(j) <- v;
    sift_down h j
  end

let push h k v =
  if h.size >= Array.length h.keys then grow h v;
  h.keys.(h.size) <- k;
  h.vals.(h.size) <- v;
  h.size <- h.size + 1;
  sift_up h (h.size - 1)

let peek_key h =
  if h.size = 0 then raise Not_found;
  h.keys.(0)

let peek h =
  if h.size = 0 then raise Not_found;
  (h.keys.(0), h.vals.(0))

let pop h =
  if h.size = 0 then raise Not_found;
  let k = h.keys.(0) and v = h.vals.(0) in
  h.size <- h.size - 1;
  if h.size > 0 then begin
    h.keys.(0) <- h.keys.(h.size);
    h.vals.(0) <- h.vals.(h.size);
    sift_down h 0
  end;
  (k, v)

let clear h = h.size <- 0

let drain h f =
  while not (is_empty h) do
    let k, v = pop h in
    f k v
  done
