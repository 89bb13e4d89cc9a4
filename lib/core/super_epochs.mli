(** Super-epoch bookkeeping (paper Section 3.4).

    A {e super-epoch} ends the moment at least [2m] colors have had a
    timestamp update event since the super-epoch started; the next one
    begins immediately.  The analysis of Lemma 3.5 charges OFF's cost to
    super-epochs; this module makes the quantity measurable so the
    accompanying structural facts can be checked on real runs:

    - Corollary 3.2: at most three epochs of any color overlap one
      super-epoch;
    - Lemma 3.16: each color has at most three special epochs, so the
      number of epochs is O(super-epochs × m) + O(colors). *)

type t

val create : m:int -> t
(** A counter for [m] offline resources, the [m] of the analysis.
    @raise Invalid_argument if [m < 1]. *)

val attach : t -> Rrs_obs.Sink.t -> Rrs_obs.Sink.t
(** [attach t inner] is a sink that passes every event on to [inner]
    and counts the [Timestamp_update] events (Section 3.4's timestamp
    update events) into [t].  Hand it to {!Eligibility.create} (through
    a policy's [~sink]).  The moment a super-epoch completes it emits
    [Super_epoch { index; active_colors; updates; _ }] to [inner],
    right after the update that completed it; counting those events
    reproduces {!completed} and their [active_colors] payloads
    reproduce {!active_colors_per_super_epoch} exactly. *)

val completed : t -> int
(** Super-epochs that have ended so far. *)

val current_active_colors : t -> int
(** Colors with a timestamp update in the (incomplete) current
    super-epoch. *)

val active_colors_per_super_epoch : t -> int list
(** For each completed super-epoch, the number of distinct colors with a
    timestamp update in it (chronological).  Every entry is exactly [2m]:
    the super-epoch ends the moment the [2m]-th color updates. *)

val updates_total : t -> int
(** Total timestamp update events observed. *)
