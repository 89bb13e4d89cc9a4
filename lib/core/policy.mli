(** Online reconfiguration policies.

    A policy is consulted once per mini-round, in the reconfiguration
    phase, and answers with the desired resource coloring.  It observes
    only the past and present ({!view}); the engine enforces nothing else
    about it, so offline/oracle schedules are expressed as policies too
    (closures over the whole instance).

    The engine charges [Δ] for every resource whose color differs from
    the previous assignment and then runs the execution phase on the new
    coloring. *)

type view = {
  round : Types.round;
  mini_round : int;  (** 0 for uni-speed; 0 and 1 for double-speed *)
  arrivals : (Types.color * int) list;
      (** this round's arrival batches (empty in mini-round > 0 views and
          rounds with no request) *)
  dropped : (Types.color * int) list;
      (** jobs expired in this round's drop phase *)
  cache : Types.color array;
      (** current coloring (before this reconfiguration); read-only *)
  pending : Pending.t;  (** read-only by convention *)
}

(** A policy's own state as a {!Wire} stream — what a full-state
    checkpoint holds besides the engine's ({!Engine.Session.save}).
    [save] appends the state; [load] overwrites the state of a policy
    the same factory just built at the same (Δ, n, delay) with it.
    Derived structures (a ranking index, scratch buffers) are not part
    of it: they are rebuilt from the live state on first use. *)
type codec = { save : Wire.writer -> unit; load : Wire.reader -> unit }

type t = {
  name : string;
  reconfigure : view -> Types.color array;
      (** must return an array of length [n]; entries are colors or
          {!Types.black} *)
  codec : codec option;
      (** [None]: not checkpointable — a session running the policy
          can only be rebuilt by replaying its whole history *)
}

val stateless : codec
(** The codec of a policy with no state of its own: saves nothing. *)

type factory = Instance.t -> n:int -> t
(** Policies are instantiated per run with the instance's static
    parameters (they may not inspect [arrivals] of future rounds — online
    policies only read [delta], [delay] and [num_colors]; oracle policies
    deliberately read everything and say so in their name). *)

val sort_int_prefix : int array -> int -> unit
(** [sort_int_prefix a len] sorts [a.(0 .. len-1)] ascending in place
    (insertion sort — allocation-free, and fast on the small candidate
    sets the flat policies rank).  Packed rank keys embed the color as
    the last tie-break, so sorting the ints is sorting (color, key)
    pairs by rank. *)

val stable_assign :
  current:Types.color array -> desired:Types.color list -> Types.color array
(** Shared slot-assignment helper: keep every color of [desired] that is
    already cached in its current slot, place newcomers into the slots
    whose occupants were not retained (in ascending slot order), and
    leave leftover slots untouched... except that occupants which are no
    longer desired but whose slot is not needed by a newcomer are kept in
    place (avoiding spurious recolorings — eviction is lazy, matching the
    cost model of the paper's analysis).  [desired] must be duplicate-free
    and no longer than [current].
    @raise Invalid_argument otherwise. *)

val replicate : distinct:Types.color array -> n:int -> Types.color array
(** Mirror a [n/2]-slot distinct assignment into a full [n]-slot cache
    (paper invariant: every cached color occupies two locations).
    @raise Invalid_argument if [n <> 2 * Array.length distinct]. *)
