(** Switch register arrays with the one-access-per-packet rule enforced.

    A register array is a stage-local memory of 32-bit words.  Each
    traversal (identified by its {!Packet_ctx.t}) may perform exactly
    one operation on a given array: a read, a write, or one atomic
    read-modify-write (e.g. [read_and_increment]).  A second operation
    raises {!Packet_ctx.Access_violation} and leaves the array as it
    was.

    This is the constraint that makes naive queues impossible on real
    switches (check-then-increment needs two accesses) and that
    Draconis' delayed-pointer-correction design exists to satisfy.

    The check is exact and O(1) per access on the pipeline path.  Each
    array keeps the {!Packet_ctx} stamp of its last data-path access;
    stamps are unique across every traversal of every context in the
    process.  Finding the current traversal's stamp there means a
    second access; an older stamp of the same context means a first
    one; any other (never touched, or last touched by another context)
    defers to the context's list of the arrays this traversal touched,
    which a pipeline's one context consults about once per array per
    run.

    Storage follows use.  An array larger than one page (1,024 cells)
    keeps its cells in pages that materialize on the first completed
    write that changes one of their cells, from the data path or
    {!poke}; until then a page reads the array's fill value (zero, or
    the value of the last {!fill}).  Each page counts its cells that
    differ from the fill value, and a page whose count returns to zero
    goes back to the shared blank once another page of the array drains
    or materializes.
    Creating or filling such an array costs its page table, not its
    size, so the memory a run's registers hold follows the cells that
    hold something now, while {!bits} still reports the provisioned
    storage.  A write that raises, an RMW whose condition fails and a
    write of the value a cell already holds (the fill value into a blank
    page, say) materialize nothing.  A smaller array is allocated whole
    at creation and written in place. *)

type t

(** [create ~name ~size ()] is a zero-initialised array of [size]
    cells, 32 bits wide by default.  [cell_bits] may be 8, 16, 32 or
    64: the Tofino stateful ALU addresses sub-word cells or a paired
    64-bit lane (two 32-bit words moved in one access) — the PIFO rank
    store uses the pair to keep (rank, tie-break) in one cell.  [name]
    appears in violation messages and resource accounting. *)
val create : name:string -> size:int -> ?cell_bits:int -> unit -> t

val name : t -> string
val size : t -> int

(** Width of one cell in bits (8, 16, 32 or 64). *)
val cell_bits : t -> int

(** Storage the array consumes, in bits (cells x cell width). *)
val bits : t -> int

(** [read t ctx i] reads cell [i] (single access). *)
val read : t -> Packet_ctx.t -> int -> int

(** [write t ctx i v] writes cell [i] (single access). *)
val write : t -> Packet_ctx.t -> int -> int -> unit

(** [read_and_increment t ctx i] atomically returns the old value of
    cell [i] and increments it — the primitive Draconis builds its
    queue pointers on (paper §4.2). *)
val read_and_increment : t -> Packet_ctx.t -> int -> int

(** [read_modify_write t ctx i f] atomically returns the old value and
    stores [f old].  Models a stateful ALU operation. *)
val read_modify_write : t -> Packet_ctx.t -> int -> (int -> int) -> int

(** [exchange t ctx i v] atomically returns the old value of cell [i]
    and stores [v] — [read_modify_write] with a constant, as one access
    and without a closure. *)
val exchange : t -> Packet_ctx.t -> int -> int -> int

(** [read_and_advance t ctx i ~modulus] atomically returns the old value
    [v] of cell [i] and stores [v + 1], wrapping to [0] once [v + 1]
    reaches [modulus] — a wrap-around pointer increment in one access. *)
val read_and_advance : t -> Packet_ctx.t -> int -> modulus:int -> int

(** [compare_and_swap t ctx i ~expected ~desired] atomically returns the
    old value [v] of cell [i] and stores [desired] iff [v = expected]. *)
val compare_and_swap : t -> Packet_ctx.t -> int -> expected:int -> desired:int -> int

(** [read_and_increment_below t ctx i ~limit] atomically returns the old
    value [v] of cell [i] and stores [v + 1] iff [v < limit] — a
    bounded counter increment in one access. *)
val read_and_increment_below : t -> Packet_ctx.t -> int -> limit:int -> int

(** [read_and_decrement_above t ctx i ~floor] atomically returns the old
    value [v] of cell [i] and stores [v - 1] iff [v > floor]. *)
val read_and_decrement_above : t -> Packet_ctx.t -> int -> floor:int -> int

(** [peek t i] reads without a context — control-plane access, not
    usable from the data path (tests and invariant checks only). *)
val peek : t -> int -> int

(** [poke t i v] control-plane write (initialisation from the switch
    CPU, as a real deployment would do via the driver). *)
val poke : t -> int -> int -> unit

(** [fill t v] control-plane write of [v] to every cell: the switch
    CPU's bulk initialisation of a whole array. *)
val fill : t -> int -> unit
