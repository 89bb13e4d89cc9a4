(** A reusable flat buffer of [(color, count)] pairs: one round's
    arrival batch or drop list.

    The engine owns one buffer per role and refills it every round, so
    a loaded round hands its events to the policy ({!Policy.view}) and
    to the trace without building a list.  A buffer's contents are
    valid until its owner refills it: read them during the call that
    received the buffer, copy them ({!to_list}) to keep them. *)

type t

val create : unit -> t
(** An empty buffer; it grows on demand and never shrinks. *)

val length : t -> int

val color : t -> int -> Types.color
(** [color b i] for [0 <= i < length b]. *)

val count : t -> int -> int

val clear : t -> unit

val push : t -> Types.color -> int -> unit
(** Append one pair; allocates only when the buffer must grow. *)

val sort_by_color : t -> unit
(** Order the pairs by ascending color, in place and without
    allocating (insertion sort: linear on an already sorted buffer).
    The colors must be distinct. *)

val to_list : t -> (Types.color * int) list
(** The pairs in buffer order — for tests and cold paths. *)

val of_list : (Types.color * int) list -> t
