(** A recorded schedule: everything an algorithm did, phase by phase.

    The engine records nothing itself: a run's schedule is read off its
    event sink with {!of_events}, so recording costs memory only when a
    caller buffers the events ({!Rrs_obs.Sink.memory}).  {!Validator}
    re-checks a schedule against the instance and recomputes its cost
    independently. *)

type event =
  | Drop of { color : Types.color; count : int }
      (** drop phase: [count] jobs of [color] expired *)
  | Reconfigure of {
      resource : int;
      mini_round : int;
      from_color : Types.color;
      to_color : Types.color;
    }
  | Execute of { resource : int; mini_round : int; color : Types.color }

type t = {
  n : int;  (** number of resources *)
  mini_rounds : int;  (** reconfig+execution repetitions per round *)
  events : (Types.round * event) array;  (** chronological *)
}

val of_events : n:int -> mini_rounds:int -> Rrs_obs.Event.t list -> t
(** The schedule an engine run emitted, from its chronological events:
    keeps [Drop], [Reconfigure] and [Execute] and ignores every other
    event, so policies and analysis layers may share the sink.

    {[
      let sink = Rrs_obs.Sink.memory () in
      let result = Engine.run (Engine.config ~n ~sink ()) instance factory in
      Schedule.of_events ~n ~mini_rounds:1 (Rrs_obs.Sink.events sink)
    ]} *)

val events_of_round : t -> Types.round -> event list
val reconfig_count : t -> int
val execute_count : t -> int
val drop_count : t -> int
val cost : delta:int -> t -> Cost.t
(** Recomputed from the event stream. *)

val final_cache : t -> Types.color array
(** Resource colors after the last event (all-[black] start). *)

val pp : Format.formatter -> t -> unit
(** Full chronological dump — for small schedules. *)
