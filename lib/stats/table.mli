(** Plain-text table rendering for experiment output.

    Renders aligned columns like the rows/series the paper's figures
    report, so `bench/main.exe` output can be compared side by side with
    the paper. *)

type t

(** [create ~columns] starts an empty table with the given header. *)
val create : columns:string list -> t

(** [add_row t cells] appends a row; the row is padded or truncated to
    the header width. *)
val add_row : t -> string list -> unit

val row_count : t -> int

(** [render t] is the aligned textual table. *)
val render : t -> string

(** [print ~title t] writes the table with a title banner to stdout.
    If a CSV directory is configured ({!set_csv_dir}), the table is also
    written there as [<slug-of-title>.csv]. *)
val print : title:string -> t -> unit

(** [to_csv t] is the table in RFC-4180-style CSV (fields quoted when
    they contain commas, quotes, or newlines). *)
val to_csv : t -> string

(** [set_csv_dir dir] makes every subsequent [print] also emit a CSV
    file into [dir] (created if missing); [None] disables. *)
val set_csv_dir : string option -> unit

(** Format a nanosecond duration as microseconds with 2 decimals. *)
val us : int -> string


(** Format a rate as thousands of tasks per second. *)
val ktps : float -> string
