(** Mutable distinct-slot cache state shared by the policy
    implementations: tracks the distinct half of the cache, offers an O(1)
    membership test, and produces the engine-facing assignment (with or
    without the replication half). *)

type t

val create : num_colors:int -> distinct_slots:int -> t
val mem : t -> Types.color -> bool
val cached_colors : t -> Types.color list
(** Ascending color order; excludes black. *)

val assign : t -> desired:Types.color list -> unit
(** Update the distinct slots with {!Policy.stable_assign} placement
    semantics (desired colors in place stay; newcomers fill, in desired
    order, the left-to-right slots whose occupants are unwanted).
    @raise Invalid_argument exactly when [Policy.stable_assign] would. *)

val assign_array : t -> int array -> int -> unit
(** [assign_array t buf len]: {!assign} over [buf.(0 .. len-1)] without
    touching the list — the zero-alloc hot-path entry (policies keep
    [buf] as reusable scratch). *)

val live_slots : t -> Types.color array
(** The live distinct-slot array itself, {e not} a copy — read-only
    borrow for the policies' candidate scans; callers must not mutate
    it and must not hold it across an {!assign}. *)

val to_assignment : t -> replicated:bool -> Types.color array
(** The full engine assignment: the distinct slots, doubled when
    [replicated] (paper invariant: each cached color in two locations). *)

val distinct : t -> Types.color array
(** The raw distinct slots (copy). *)

(** {2 Checkpointing} *)

val save : t -> Wire.writer -> unit
(** The distinct slots.  A policy must save them rather than derive
    them from the engine's cache: after a reconfiguration the fresh
    policy's slots and the cache differ. *)

val load : t -> Wire.reader -> unit
(** What {!save} wrote, decoded straight into the slots.
    @raise Wire.Malformed on a slot count or color {!save} cannot have
    written; the slots are then left part-filled, to be discarded. *)

val codec : ?eligibility:Eligibility.t -> t -> Policy.codec
(** The codec of a policy whose state is these slots, after the
    eligibility state it reads, when it has one. *)
