(** The EDF-style ranking of colors shared by EDF, Seq-EDF and the EDF
    component of ΔLRU-EDF (paper Sections 3.1.2 and 3.3): nonidle colors
    first, then ascending color deadline, ties broken by increasing delay
    bound and then by the consistent color order (ascending ids).

    Ineligible colors are ranked strictly worse than all eligible colors
    (they are eviction fodder); among themselves they rank by color id. *)

type key = private int
(** Totally ordered rank key; smaller = better (cache-worthy).  The
    [(klass, deadline, delay, color)] tuple packed into one tagged int
    ({!Packed}), so {!compare} is plain integer comparison and the flat
    index heaps hold keys unboxed. *)

val compare : key -> key -> int

val pack_key : klass:int -> deadline:int -> delay:int -> color:int -> key
(** Direct field packing; the inverse of the accessors below.  Exposed
    for the packed-vs-record differential tests.
    @raise Invalid_argument on field overflow ({!Packed}). *)

val key_klass : key -> int
val key_deadline : key -> int
val key_delay : key -> int
val key_color : key -> int

val key_of_color :
  Eligibility.t -> Pending.t -> delay:int array -> Types.color -> key
(** Rank key of one color under the current state.  For nonidle colors
    the deadline used is the earliest pending deadline (equal to the
    color deadline [ℓ.dd] on batched instances); for idle eligible
    colors it is [ℓ.dd]. *)

(** {2 Incremental maintenance}

    {!Index} maintains the EDF rank order of the nonidle eligible
    colors and the ΔLRU recency order of the eligible colors under the
    typed change feeds ({!Eligibility.on_change},
    {!Pending.on_front_change}), paying O(log C) per state change and
    O(k log k) per prefix query instead of re-sorting the eligible set
    every round.  Only nonidle eligible colors are ranked because a
    policy adds nothing else from a rank prefix (paper Sections 3.1.2
    and 3.3); a cached idle or ineligible color is priced with
    {!key_of_color}.  A list-sort reference of both orders lives with
    the tests ([test/oracle]); an index query always returns exactly
    the prefix that reference would. *)

module Index : sig
  type t

  val create :
    ?counter:Rrs_obs.Metrics.counter ->
    Eligibility.t ->
    Pending.t ->
    delay:int array ->
    t
  (** Build the index from the current state (O(E log E) once) and
      take over both change feeds (each has one subscriber, so an index
      built over the same [Pending.t] replaces this one's feed); from
      then on every eligibility, timestamp and pending-front transition
      updates the affected color's keys in place.  Create it {e after} the state it
      snapshots is current (policies create it lazily on their first
      [reconfigure]).  [counter] (conventionally the registry's
      ["ranking_update"]) is bumped once per incremental heap
      operation. *)

  val lazily :
    ?counter:Rrs_obs.Metrics.counter ->
    Eligibility.t ->
    delay:int array ->
    Pending.t ->
    t
  (** Memoizing {!create}: the first application to a [Pending.t] builds
      the index, later applications return it.  Partially apply at
      policy-construction time, resolve inside [reconfigure] — the
      standard way policies defer the snapshot until the state is
      live. *)

  (** {3 Scratch-buffer queries — the zero-alloc hot path}

      Each writes the answer's colors into a caller-owned [out] buffer
      and returns how many were written, best rank first; the heaps are
      not modified and a warm call allocates nothing.  All three are
      wrapped in the ["ranking.query"] profiler span, balanced even if
      the body (e.g. a caller-supplied [exclude]) raises. *)

  val ranked_prefix_into : t -> k:int -> out:int array -> int
  (** The best-ranked [min k N] nonidle eligible colors; O(k log k).
      @raise Invalid_argument if [out] is too small. *)

  val ranked_prefix_excluding_into :
    t -> k:int -> excluded:int -> exclude:(Types.color -> bool) ->
    out:int array -> int
  (** Same, skipping colors for which [exclude] holds.  [excluded] must
      upper-bound the number of excluded colors present in the index. *)

  val recency_prefix_into : t -> k:int -> out:int array -> int
  (** The first [min k E] colors of the ΔLRU selection order: most
      recent timestamp first, ties by the consistent color order
      (ascending id). *)

  val rank_key : t -> Types.color -> key
  (** The indexed rank key of a nonidle eligible color — what
      {!key_of_color} would recompute, read straight from the index;
      zero-alloc.
      @raise Not_found if the color is not in the index. *)

  val eligible_count : t -> int
  (** Eligible colors, idle ones included: the size of the recency
      order. *)

  val updates : t -> int
  (** Incremental heap operations performed so far (the quantity the
      ["ranking_update"] counter mirrors). *)
end
