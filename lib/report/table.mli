(** Aligned text tables for the experiment harness.

    A table is a header plus rows of cells; rendering right-aligns
    numeric-looking cells and left-aligns the rest.  Output styles:
    plain aligned ASCII (for terminals and the bench log) and GitHub
    markdown (for EXPERIMENTS.md). *)

type t

val create : columns:string list -> t
(** @raise Invalid_argument on an empty column list. *)

val add_row : t -> string list -> unit
(** @raise Invalid_argument if the row width differs from the header. *)

val row_count : t -> int

val cell_int : int -> string
val cell_float : ?decimals:int -> float -> string
(** Default 2 decimals; infinity renders as ["inf"]. *)

val cell_cost : reconfig:int -> drop:int -> string
(** ["total (r+d)"] compact cost cell. *)

val to_string : t -> string
(** Aligned ASCII with a separator under the header. *)

val to_markdown : t -> string

val print : ?title:string -> t -> unit
(** [to_string] to stdout, preceded by an underlined title. *)
