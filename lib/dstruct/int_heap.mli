(** Flat 4-ary min-heap of plain ints, ordered by [<].

    The engine's zero-allocation event heap: entries are packed
    [(value, color)] pairs (see [Rrs_core.Packed]), so the backing store
    is one unboxed [int array], comparisons are native, and the 4-ary
    layout keeps all children of a node in one cache line.  The inner sift loops use a bounds-check-free
    [unsafe_] tier reachable only through the safe public operations;
    {!check_invariant} exercises it under test. *)

type t

val create : ?initial_capacity:int -> unit -> t
(** Empty heap.  [initial_capacity] (default 16) is honored exactly by
    the first backing-array allocation.
    @raise Invalid_argument if [initial_capacity < 1]. *)

val length : t -> int
val is_empty : t -> bool

val capacity : t -> int
(** Current backing-array capacity (the creation-time hint until the
    first [add] materializes it). *)

val add : t -> int -> unit
(** O(log n); allocates only when the backing array must grow. *)

val min : t -> int
(** Smallest element, not removed; O(1).
    @raise Not_found on an empty heap. *)

val pop_min : t -> int
(** Remove and return the smallest element; O(log n), zero-alloc.
    @raise Not_found on an empty heap. *)

val clear : t -> unit
(** Remove all elements (keeps the backing array). *)

val iter : (int -> unit) -> t -> unit
(** Iterate in unspecified (array) order. *)

val to_sorted_list : t -> int list
(** Non-destructive ascending extraction; O(n log n), for tests. *)

val check_invariant : t -> bool
(** 4-ary heap property over the live prefix; exposed for tests. *)
