(** 4-ary min-heap over the integer keys [0 .. capacity-1] with an
    inverse position index and {e int} priorities — flat and
    option-free.

    This is the ranking hot path's structure: each color is a key, its
    priority is its rank key packed into a single tagged int
    ([Rrs_core.Packed]), and every priority change is an O(log n)
    in-place adjustment.  Because priorities are native ints ordered by
    [<], the heap stores three flat [int array]s and performs zero
    allocation on every operation except the first warm-up of the
    {!smallest_into} scratch buffer.

    Absence is encoded by [-1] sentinels in the position index (keys and
    priorities need no option boxing).  The inner sift loops run on a
    bounds-check-free [unsafe_] accessor tier reachable only through the
    safe public operations, which validate keys first;
    {!check_invariant} exercises the full structure under test (see the
    4-ary storm tests in [test/test_dstruct.ml]). *)

type t

val create : capacity:int -> t
(** Empty heap accepting keys [0 .. capacity-1].
    @raise Invalid_argument if [capacity < 0]. *)

val capacity : t -> int
val length : t -> int
val is_empty : t -> bool

val mem : t -> int -> bool
(** [mem h key] is [true] iff [key] is currently in the heap.
    @raise Invalid_argument if [key] is out of range. *)

val priority : t -> int -> int
(** Current priority of a present key.
    @raise Not_found if the key is absent. *)

val insert : t -> int -> int -> unit
(** [insert h key prio] adds [key] with priority [prio]; zero-alloc.
    @raise Invalid_argument if [key] is out of range or present. *)

val update : t -> int -> int -> unit
(** [update h key prio] changes the priority of a present key (any
    direction), or inserts it if absent; O(log n), zero-alloc. *)

val remove : t -> int -> unit
(** Remove a key if present; no-op otherwise; zero-alloc. *)

val min_key : t -> int
(** Key with the smallest priority, not removed; O(1), zero-alloc.
    @raise Not_found on an empty heap. *)

val min : t -> int * int
(** [(key, prio)] of the minimum; allocates the pair.
    @raise Not_found on an empty heap. *)

val pop_min : t -> int * int
val pop_min_opt : t -> (int * int) option
val peek_min_opt : t -> (int * int) option

val clear : t -> unit

val iter : (int -> int -> unit) -> t -> unit
(** Iterate over present bindings in unspecified order. *)

val smallest_into : t -> int -> out:int array -> int
(** [smallest_into h k ~out] writes the [min k (length h)] smallest keys
    into [out.(0) ..] in ascending priority order and returns how many
    were written, without modifying the heap; O(k log k) via a side heap
    of slots kept in an internal scratch buffer, so a warm call
    allocates nothing.
    @raise Invalid_argument if [out] cannot hold [min k (length h)]
    keys. *)

val smallest : t -> int -> (int * int) list
(** List-building convenience over {!smallest_into} (allocates; for
    tests and cold oracle paths). *)

val check_invariant : t -> bool
(** 4-ary heap property and position-index consistency in both
    directions; exposed for tests. *)
