(** Bit-packing of the ranking hot path's composite keys into single
    tagged ints, so the flat heaps ({!Rrs_dstruct.Int_indexed_heap},
    {!Rrs_dstruct.Int_heap}) can order them with native [<].

    All packed values occupy the low 62 bits of a native int and are
    non-negative; because every field is non-negative and fits its
    width, integer comparison of packed values is {e exactly} the
    lexicographic comparison of the unpacked tuples.  Packers raise
    [Invalid_argument] on any field overflow — and [Ranking.Index]
    validates the whole instance once at build time, so the guards are
    never hit on accepted instances.

    Layout (high to low): rank key = [klass(2) | deadline(23) |
    delay(20) | color(17)]; recency = [2^44 - timestamp (45) |
    color(17)]; pair = [value(45) | color(17)]. *)

val max_colors : int
(** [2^17]: exclusive upper bound on color ids in any packed value. *)

val max_delay : int
(** [2^20]: exclusive upper bound on a delay bound in a rank key. *)

val max_deadline : int
(** [2^23]: exclusive upper bound on a deadline in a rank key. *)

val max_pair_value : int
(** [2^45]: exclusive upper bound on the value half of {!pack_pair}. *)

val pack_key : klass:int -> deadline:int -> delay:int -> color:int -> int
(** The EDF rank key [(klass, deadline, delay, color)] as one int;
    ascending int order = ascending lexicographic order.
    @raise Invalid_argument on overflow of any field. *)

val key_klass : int -> int
val key_deadline : int -> int
val key_delay : int -> int
val key_color : int -> int

val pack_recency : timestamp:int -> color:int -> int
(** The ΔLRU recency key [(-timestamp, color)] as one int (timestamp
    [>= -1], biased to stay non-negative); ascending int order = most
    recent timestamp first, ties by ascending color.
    @raise Invalid_argument on overflow. *)

val recency_timestamp : int -> int
val recency_color : int -> int

val pack_pair : value:int -> color:int -> int
(** A generic [(value, color)] event-heap entry (due deadline, window
    boundary) as one int; ascending int order = ascending pair order.
    @raise Invalid_argument on overflow. *)

val pair_value : int -> int
val pair_color : int -> int
