(** A push-in-first-out queue realized under the switch resource model.

    A PIFO (Sivaraman et al., "Programmable Packet Scheduling at Line
    Rate") admits entries with an arbitrary rank and always releases the
    minimum-rank entry; a single PIFO primitive expresses EDF, weighted
    fairness, and aging priority — disciplines Draconis hard-codes as
    separate queue arrangements.

    {2 Why a true PIFO is illegal on the modeled switch}

    The paper's §2.1.1 constraint — enforced here by {!Packet_ctx} —
    allows each register array to be operated on {e at most once per
    traversal}.  A real PIFO's pop must compare every stored rank and
    extract the minimum: with the rank store in one register array that
    is O(capacity) reads of the same array in one traversal, and even a
    sorted insert needs a read-scan followed by a shift — both flagrant
    violations ({!Packet_ctx.Access_violation} if attempted).

    {2 The workaround this module implements}

    The rank store is sharded into [scan_width] independent single-word
    register {e banks} (distinct arrays, so one traversal may legally
    touch one cell of each).  Each 64-bit bank cell packs
    [(rank << 20) | seq + 1] where [seq] is a FIFO tie-break stamp; [0]
    means free.

    - {b Admit} gates on an occupancy register, stamps a tie-break
      sequence number, then probes one {e row} (one cell per bank) per
      traversal, claiming the first free cell with an atomic
      compare-free-and-stamp; full rows recirculate the probe with an
      advanced row cursor.
    - {b Pop} is a multi-traversal scan: each traversal reads one row
      across all banks (one access per bank — legal) carrying the best
      candidate forward in packet metadata, followed by a {e separate}
      claim traversal that atomically frees the winning cell — it
      cannot ride the final scan traversal, which already accessed the
      winner's bank.
    - An {b epoch} register guards claims against control-plane
      renumbering; a stale or raced claim loses and the pop restarts.

    The price is recirculation: a pop costs [cells_per_bank + 1]
    traversals where a circular queue costs one.  Callers surface that
    cost through their recirculation instrumentation; it is the honest
    reason in-switch PIFOs trade capacity (small [cells_per_bank])
    against array budget (large [scan_width]).

    Payloads are opaque word images ([word_count] u32 words per entry)
    stored in per-word register arrays, exactly like the circular
    queue's entry store. *)

open Draconis_p4

type t

(** Bits of the FIFO tie-break stamp inside a packed cell. *)
val seq_bits : int

(** Exclusive upper bound of tie-break stamps ([2 ^ seq_bits]). *)
val seq_limit : int

(** [create ~name ~capacity ~scan_width ~word_count ?max_rank ()] builds
    a PIFO with [capacity] slots arranged as [scan_width] rank banks of
    [capacity / scan_width] cells.  [capacity] must be a positive
    multiple of [scan_width] and at most [seq_limit / 4] (so renumbering
    can always run before the stamp wraps).  Ranks are clamped to
    [\[0, max_rank\]] (default [2^32 - 1], the width of a switch rank
    field). *)
val create :
  name:string ->
  capacity:int ->
  scan_width:int ->
  word_count:int ->
  ?max_rank:int ->
  unit ->
  t

val name : t -> string
val capacity : t -> int
val scan_width : t -> int

val word_count : t -> int
val max_rank : t -> int

(** Probe traversals an admit may spend before giving up (two full
    passes over the rows). *)
val probe_budget : t -> int

(** Every register array the PIFO allocated, for {!Layout.place}. *)
val registers : t -> Register.t list

(** {2 Admission (one traversal per call)} *)

(** In-flight probe state carried across recirculations. *)
type probe

type admit_result =
  | Admitted of { slot : int; packed : int }
  | Probing of probe  (** row full; recirculate and call {!probe} *)
  | Full  (** occupancy gate rejected (or probe budget exhausted) *)

(** [admit t ctx ~rank ~words] is the first admission traversal:
    occupancy gate, tie-break stamp, probe of the first row.  [words]
    must be [word_count] u32 values.  Clamps [rank] into
    [\[0, max_rank\]]. *)
val admit : t -> Packet_ctx.t -> rank:int -> words:int array -> admit_result

(** [probe t ctx p] continues an admission on its next row (fresh
    traversal).  Returns [Full] — after undoing the occupancy gate —
    once the probe budget is exhausted. *)
val probe : t -> Packet_ctx.t -> probe -> admit_result

(** {2 Pop (scan traversals, then a claim traversal)} *)

(** Scan state carried across recirculations. *)
type scan

(** A scan's winner, to be claimed in a separate traversal. *)
type candidate

type scan_result =
  | Empty  (** occupancy is zero: nothing to pop *)
  | Scanning of scan  (** recirculate and call {!scan_step} *)
  | Ready of candidate  (** scan finished; recirculate and {!claim} *)
  | Drained
      (** all rows scanned, nothing claimable (admits in flight);
          the pop should give up or restart *)

(** [scan_start t ctx] begins a pop: occupancy + epoch read and the
    first row scan. *)
val scan_start : t -> Packet_ctx.t -> scan_result

(** [scan_step t ctx s] scans the next row (fresh traversal). *)
val scan_step : t -> Packet_ctx.t -> scan -> scan_result

type claim_result =
  | Claimed of { slot : int; packed : int; words : int array }
  | Lost  (** raced by another claim or invalidated by renumbering *)

(** [claim t ctx c] atomically frees the winning cell if it still holds
    the scanned stamp and the epoch is unchanged, releasing the payload
    words.  [Lost] callers restart the pop (bounding their restarts). *)
val claim : t -> Packet_ctx.t -> candidate -> claim_result

(** {2 Packed-cell accessors (instrumentation, tests)} *)

val rank_of_packed : int -> int

(** {2 Control plane (switch-CPU operations, not data path)} *)

(** Current number of stored (or admission-gated in-flight) entries. *)
val occupancy : t -> int

(** True once the tie-break stamp counter is close enough to
    [seq_limit] that {!renumber} must run before it saturates. *)
val needs_renumber : t -> bool

(** [renumber t] compacts tie-break stamps: live cells are re-stamped
    [0, 1, ...] in packed (rank, seq) order — preserving both rank order
    and same-rank FIFO order — the stamp counter is reset past them and
    the epoch register is bumped so in-flight scans restart rather than
    claim against stale stamps. *)
val renumber : t -> unit

(** Completed {!renumber} passes. *)
val renumbers : t -> int

(** Admissions whose rank was clamped to [max_rank]. *)
val rank_clamps : t -> int

(** [peek_slots t] is the live [(slot, rank, seq)] triples in packed
    order — the exact order pops would release them (tests only). *)
val peek_slots : t -> (int * int * int) list

(** [peek_payloads t] is the live payload word images in packed order
    (control-plane walk for end-state checks). *)
val peek_payloads : t -> int array list
