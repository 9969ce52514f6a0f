(* Cells live in pages of [page_cells] 8-byte cells, in byte blocks
   the GC never scans (it scans an [int array] word by word on every
   major cycle).  A paged array's page table starts with every entry on
   its [blank]: one shared page, never written, that holds the fill
   value.  The first write that changes a cell of a page gives it a
   private copy, and [live] counts, per page, the cells that differ from
   the fill value.  A page whose count returns to zero is [drained]: it
   goes back to the blank when another page drains or materializes, so
   an array costs its page table plus the pages that hold live cells
   (and at most one drained page), not its provisioned size.  Releasing
   a page at once instead would copy it again on every write of a queue
   that fills and drains one slot, and looking for a drained page on
   every write slowed the queue's writes.  A page is 8 KB, above
   [Max_young_wosize]: materializing one allocates in the major heap
   and adds no minor words.  An array that fits in one page is
   allocated eagerly, at its own size, and written in place. *)
let page_shift = 10
let page_cells = 1 lsl page_shift
let page_mask = page_cells - 1

(* The blank page of every paged array until a [fill] with a non-zero
   value.  Never written, so every domain may share it. *)
let zero_page = Bytes.make (page_cells lsl 3) '\000'

type t = {
  id : int;
  name : string;
  cell_bits : int;
  size : int;
  pages : Bytes.t array;
  mutable blank : Bytes.t;  (* the page every unwritten entry shares *)
  mutable fill_value : int;  (* the value every cell of [blank] holds *)
  mutable live : int array;
      (* per page, the cells that differ from [fill_value]; [[||]] until
         the first page materializes *)
  mutable drained : int;  (* a materialized page with no live cell, or -1 *)
  mutable last : int;  (* stamp of the last data-path access; 0 = none *)
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
  let pages =
    if size <= page_cells then [| Bytes.make (size lsl 3) '\000' |]
    else Array.make (((size - 1) lsr page_shift) + 1) zero_page
  in
  {
    id = 1 + Atomic.fetch_and_add next_id 1;
    name;
    cell_bits;
    size;
    pages;
    blank = zero_page;
    fill_value = 0;
    live = [||];
    drained = -1;
    last = 0;
  }

let name t = t.name
let size t = t.size
let cell_bits t = t.cell_bits
let bits t = t.cell_bits * t.size

(* Out of line, so the in-range test inlines into every access; it
   returns the exception, so nothing stays live across the call. *)
let[@inline never] out_of_bounds t i =
  Invalid_argument
    (Printf.sprintf "Register %s: index %d out of bounds [0,%d)" t.name i t.size)

let[@inline] check_bounds t i =
  if i < 0 || i >= t.size then raise (out_of_bounds t i)

external get64 : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64 : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"

(* The drained page goes back to the blank unless a write has given it
   a live cell again. *)
let release t =
  let p = t.drained in
  t.drained <- -1;
  if Array.unsafe_get t.live p = 0 then Array.unsafe_set t.pages p t.blank

(* Page [p] is blank, so it is not the drained page. *)
let[@inline never] materialize t p =
  if t.drained >= 0 then release t;
  if Array.length t.live = 0 then t.live <- Array.make (Array.length t.pages) 0;
  let page = Bytes.copy t.blank in
  Array.unsafe_set t.pages p page;
  page

let[@inline never] drain t p =
  if t.drained >= 0 && t.drained <> p then release t;
  t.drained <- p

(* Unchecked: every caller checks the bounds first.  The [int64] never
   leaves the expression, so nothing is boxed. *)
let[@inline] get t i =
  let page = Array.unsafe_get t.pages (i lsr page_shift) in
  Int64.to_int (get64 page ((i land page_mask) lsl 3))

(* [store t i old v] writes [v] over [old], the value cell [i] holds.
   A paged array skips a write that changes nothing, so writing the fill
   value into a blank page materializes nothing; otherwise it keeps the
   page's count of live cells.  A drained page is released when another
   page drains or materializes, so the common write pays only the count. *)
let[@inline] store t i old v =
  if t.size <= page_cells then
    set64 (Array.unsafe_get t.pages 0) (i lsl 3) (Int64.of_int v)
  else if old <> v then begin
    let p = i lsr page_shift in
    let page = Array.unsafe_get t.pages p in
    let page = if page == t.blank then materialize t p else page in
    set64 page ((i land page_mask) lsl 3) (Int64.of_int v);
    if old = t.fill_value then Array.unsafe_set t.live p (Array.unsafe_get t.live p + 1)
    else if v = t.fill_value then begin
      let n = Array.unsafe_get t.live p - 1 in
      Array.unsafe_set t.live p n;
      if n = 0 then drain t p
    end
  end

let[@inline] set t i v = store t i (get t i) v

(* Top-level and annotated, so a lookup allocates no closure and
   compares ints inline. *)
let rec listed (ids : int array) count (id : int) i =
  i < count && (Array.unsafe_get ids i = id || listed ids count id (i + 1))

let[@inline] same_context stamp stamp' =
  stamp lsr Packet_ctx.traversal_bits = stamp' lsr Packet_ctx.traversal_bits

(* Record an access: append to the traversal's list (which has room),
   then stamp the array. *)
let[@inline] record t (ctx : Packet_ctx.t) =
  let l = ctx.touched in
  Array.unsafe_set l.ids l.count t.id;
  l.count <- l.count + 1;
  t.last <- ctx.stamp

(* The cases the fast path leaves.  [last] equal to the stamp is this
   traversal's own earlier access.  [last] from another context (or 0)
   proves nothing: another context may have overwritten this
   traversal's stamp since its access, so only the traversal's list can
   tell.  And the list may need to grow. *)
let[@inline never] access_slow t (ctx : Packet_ctx.t) =
  let l = ctx.touched in
  if t.last = ctx.stamp
     || ((not (same_context t.last ctx.stamp)) && listed l.ids l.count t.id 0)
  then raise (Packet_ctx.Access_violation t.name);
  if l.count = Array.length l.ids then begin
    let bigger = Array.make (2 * Array.length l.ids) 0 in
    Array.blit l.ids 0 bigger 0 l.count;
    l.ids <- bigger
  end;
  record t ctx

(* The one-access rule (see the interface).  The fast path is the
   pipeline's: [last] is an older stamp of the same context, which
   proves this traversal has not touched the array. *)
let[@inline] access t (ctx : Packet_ctx.t) =
  if t.last <> ctx.stamp && same_context t.last ctx.stamp
     && ctx.touched.count < Array.length ctx.touched.ids
  then record t ctx
  else access_slow t ctx

(* Every data-path operation below is one access: bounds, then the
   rule, then the cell. *)
let read t ctx i =
  check_bounds t i;
  access t ctx;
  get t i

let write t ctx i v =
  check_bounds t i;
  access t ctx;
  set t i v

let read_modify_write t ctx i f =
  check_bounds t i;
  access t ctx;
  let old = get t i in
  store t i old (f old);
  old

(* The fixed-function RMWs below are what the hot paths use: each is
   the same single access as [read_modify_write], without a closure. *)
let exchange t ctx i v =
  check_bounds t i;
  access t ctx;
  let old = get t i in
  store t i old v;
  old

let read_and_increment t ctx i =
  check_bounds t i;
  access t ctx;
  let old = get t i in
  store t i old (old + 1);
  old

let read_and_advance t ctx i ~modulus =
  check_bounds t i;
  access t ctx;
  let old = get t i in
  store t i old (if old + 1 >= modulus then 0 else old + 1);
  old

let compare_and_swap t ctx i ~expected ~desired =
  check_bounds t i;
  access t ctx;
  let old = get t i in
  if old = expected then store t i old desired;
  old

let read_and_increment_below t ctx i ~limit =
  check_bounds t i;
  access t ctx;
  let old = get t i in
  if old < limit then store t i old (old + 1);
  old

let read_and_decrement_above t ctx i ~floor =
  check_bounds t i;
  access t ctx;
  let old = get t i in
  if old > floor then store t i old (old - 1);
  old

let peek t i =
  check_bounds t i;
  get t i

let poke t i v =
  check_bounds t i;
  set t i v

(* An eager array is written in place; a paged one drops its pages for
   a blank holding [v]. *)
let fill t v =
  if t.size <= page_cells then
    for i = 0 to t.size - 1 do
      set t i v
    done
  else begin
    let blank =
      if v = 0 then zero_page
      else begin
        let page = Bytes.create (page_cells lsl 3) in
        for i = 0 to page_cells - 1 do
          set64 page (i lsl 3) (Int64.of_int v)
        done;
        page
      end
    in
    t.blank <- blank;
    t.fill_value <- v;
    Array.fill t.pages 0 (Array.length t.pages) blank;
    Array.fill t.live 0 (Array.length t.live) 0;
    t.drained <- -1
  end
