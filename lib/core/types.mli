(** Ground vocabulary of the reconfigurable-resource-scheduling model
    ([Δ | 1 | D_ℓ | batch] problems, Plaxton-Sun-Tiwari-Vin).

    Jobs are unit-size.  Each job has a color; a job of color [ℓ] must be
    executed on a resource configured to [ℓ] within [delay ℓ] rounds of
    its arrival, or be dropped at unit cost.  Resources are reconfigured
    at cost [Δ] per recoloring.  [black] is the initial color of every
    resource; no job is black. *)

type color = int
(** Colors are dense nonnegative integers [0 .. num_colors-1]. *)

type round = int
(** Rounds are numbered from 0. *)

val black : color
(** The initial, job-less resource color ([-1]). *)

type arrival = { round : round; color : color; count : int }
(** [count] unit jobs of [color] arriving in the arrival phase of
    [round]. *)

val compare_arrival : arrival -> arrival -> int
(** Orders by round, then color (the canonical instance order). *)

val pp_arrival : Format.formatter -> arrival -> unit

type phase = Drop_phase | Arrival_phase | Reconfig_phase | Execution_phase
(** The four phases of every round, in execution order. *)

val is_power_of_two : int -> bool
(** [true] for 1, 2, 4, 8, ...; [false] for non-positive inputs. *)

val floor_pow2 : int -> int
(** Largest power of two [<= n].  @raise Invalid_argument if [n < 1]. *)

val ceil_pow2 : int -> int
(** Smallest power of two [>= n].  @raise Invalid_argument if [n < 1]. *)
