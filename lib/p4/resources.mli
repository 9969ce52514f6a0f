(** Static switch-resource accounting (paper §7).

    Estimates whether a Draconis deployment (queue entries x priority
    levels) fits a given switch generation.  Budgets are
    reverse-engineered from the paper's reported capacities: their
    first-generation Tofino holds a 164K-task queue and 4 priority
    levels; they estimate 1M tasks and 12 levels on Tofino 2.

    The model: a queue entry spans [words_per_entry] 32-bit words stored
    in parallel register arrays, one array per word; each array must fit
    entirely inside one stage's register SRAM; a stage can host at most
    [arrays_per_stage] arrays; every priority level adds its own set of
    entry arrays plus pointer/flag registers, co-located in the same
    stages (the paper's layout, which is why retrieval needs
    recirculation across levels). *)

type profile = {
  name : string;
  stages : int;  (** match-action stages per pipeline *)
  register_bits_per_stage : int;  (** stateful-ALU SRAM per stage *)
  arrays_per_stage : int;  (** register arrays per stage *)
  overhead_stages : int;  (** stages consumed by parsing/forwarding *)
}

(** First-generation Tofino, as deployed in the paper. *)
val tofino1 : profile

(** Tofino 2, per the paper's §7 extrapolation. *)
val tofino2 : profile

(** [max_queue_entries p ~priority_levels] is the largest per-level
    queue capacity that fits.
    @raise Invalid_argument if [priority_levels < 1]. *)
val max_queue_entries : profile -> priority_levels:int -> int

(** [max_priority_levels p] is the number of independent queues the
    stage layout can host. *)
val max_priority_levels : profile -> int

(** [fits p ~queue_entries ~priority_levels] checks a configuration. *)
val fits : profile -> queue_entries:int -> priority_levels:int -> bool

(** [report p ~priority_levels] renders a human-readable capacity line. *)
val report : profile -> priority_levels:int -> string
