(** Algorithm Par-EDF (paper Section 3.3): [m] resources viewed as one
    super-resource that executes, each round, up to [m] pending jobs with
    the best job ranks (ascending deadline, ties by increasing delay
    bound then the consistent color order) — reconfiguration is free and
    implicit.

    Its drop cost lower-bounds every offline algorithm's drop cost
    (Lemma 3.7, by EDF optimality), which makes it one half of our
    certified OPT lower bound. *)

type result = {
  drop_cost : int;
  executed : int;
  drops_by_color : int array;
}

val run : Instance.t -> m:int -> result
(** Runs on a {!Rrs_dstruct.Int_indexed_heap} over the nonidle colors,
    kept in sync by {!Pending.on_front_change}.
    @raise Invalid_argument if [m < 1]. *)

val drop_cost : Instance.t -> m:int -> int
