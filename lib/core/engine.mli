(** The round engine: drives the four phases of every round
    (drop → arrival → reconfigure → execute) against a {!Policy.t} and
    accounts costs.

    One engine run resolves every job of the instance: simulation
    continues through [Instance.horizon], whose final drop phase expires
    the last pending jobs.

    [mini_rounds] repeats the reconfiguration and execution phases within
    each round, implementing the paper's double-speed schedules
    (Section 3.3) with the same code path.

    [cost_projection] recolors the cost accounting (not the policy's own
    view): when set, a reconfiguration is only charged if the *projected*
    colors differ.  The {!Distribute} reduction uses this to price its
    final schedule, in which all subcolors [(ℓ, j)] of a color collapse
    back to [ℓ] (paper, Lemma 4.2).

    [sink] is the engine's only observation input.  It receives a
    typed {!Rrs_obs.Event.t} for every round-phase action (drop,
    arrival, mini-round start, charged reconfiguration, execution) and,
    once the round is committed, a [Round_end] carrying the Δ its
    recolorings were charged at and its wall-clock latency.  The stream
    is the only record of a run: every phase event carries
    post-projection colors, so it always reproduces the cost accounting
    (across a live Δ change too), {!Schedule.of_events} turns a
    {!Rrs_obs.Sink.memory} buffer into the recorded schedule, and every
    live consumer — the per-round sampler, the heartbeat, the flight
    recorder, the watchdog — attaches in front of it (doc/TELEMETRY.md,
    "Live telemetry").  With the default {!Rrs_obs.Sink.null} the
    engine reads no clock, allocates nothing for tracing and pays one
    predictable branch per potential event.

    Fault probes ({!Rrs_fault.probe}): ["engine.run"] once per run,
    ["engine.round"] at the top of every round — free without an
    installed plan, and the hooks an injection campaign uses to crash
    or stall a run mid-flight.

    Profiling spans ({!Rrs_prof}): ["engine.run"], per-round
    ["engine.round"] with child spans ["engine.drop"],
    ["engine.arrival"], ["engine.reconfigure"] and ["engine.execute"]
    per mini-round.  With no profiler attached each span site is one
    atomic load and a branch (see doc/TELEMETRY.md, "Profiling"). *)

type config = {
  n : int;  (** resources given to the policy *)
  mini_rounds : int;  (** 1 = uni-speed, 2 = double-speed *)
  cost_projection : (Types.color -> Types.color) option;
  sink : Rrs_obs.Sink.t;  (** round-phase event sink *)
}

val config :
  ?mini_rounds:int ->
  ?cost_projection:(Types.color -> Types.color) ->
  ?sink:Rrs_obs.Sink.t ->
  n:int ->
  unit ->
  config
(** @raise Invalid_argument if [n < 1] or [mini_rounds < 1]. *)

type result = {
  cost : Cost.t;
  executed : int;
  dropped : int;
  reconfigurations : int;  (** recolorings charged (post-projection) *)
  drops_by_color : int array;
  executions_by_color : int array;
  rounds_simulated : int;
  final_cache : Types.color array;
}

(** A persistent, incrementally stepped engine.

    A session is the batch loop of {!run} taken apart: it holds the
    cache, the pending-job store (and through the policy the
    eligibility state, ranking index and super-epochs), and the cost
    accounting as live state, and exposes the round as an explicit
    {!Session.step}.  Two construction modes:

    - {!Session.of_instance} preloads a built workload — the batch
      path.  {!run} and {!run_policy} are thin drivers over it, so a
      stepped session is decision-identical to the monolithic loop.
    - {!Session.create} opens an arrival {e stream}: jobs enter through
      {!Session.feed} and capacity / delay-bound / Δ parameters may
      change between rounds through {!Session.reconfigure} (the paper's
      namesake operation, lifted from the instance to the session).
      Arrival buckets are discarded as their round executes, so a
      streamed session's memory is bounded by its feed lookahead and
      the pending-job population, never by the rounds elapsed.

    Determinism contract: a session's evolution is a pure function of
    its creation parameters and the sequence of [feed]/[reconfigure]/
    [step] calls.  Replaying that sequence reproduces the schedule
    byte-identically — the foundation of the service layer's
    journal-replay restore (doc/SERVICE.md). *)
module Session : sig
  type t

  val of_instance : config -> Instance.t -> Policy.t -> t
  (** Batch session over a preloaded instance; the policy must be
      instantiated for this instance and [config.n].  Stepping it
      [instance.horizon + 1] times and calling {!finish} is exactly
      {!run_policy}. *)

  val create :
    ?name:string -> config -> delta:int -> delay:int array -> Policy.factory -> t
  (** Streamed session: [delay.(c)] is color [c]'s delay bound, the
      array length the color universe.  The factory is retained so
      {!reconfigure} can re-instantiate the policy at a new operating
      point.
      @raise Invalid_argument on invalid [delta]/[delay] (as
      {!Instance.create}) or more than {!Packed.max_colors} colors. *)

  (** {2 Driving} *)

  type feed_error =
    [ `Color_out_of_range of int * int  (** color, universe size *)
    | `Count_not_positive of int
    | `Round_in_past of int * int  (** requested round, current round *)
    | `Deadline_beyond_limit of int * int * int
      (** round, color, deadline: [round + delay] would reach
          {!Packed.max_deadline}, the rank key's deadline field *)
    | `Preloaded  (** session was built by {!of_instance} *)
    | `Finished ]

  val string_of_feed_error : feed_error -> string

  val feed :
    t -> round:int -> color:int -> count:int -> (unit, feed_error) Stdlib.result
  (** Inject [count] jobs of [color] arriving at [round] (current round
      or later).  Feeds for one round accumulate; order within a round
      follows feed order.  Allocates nothing once the session's feed
      storage has grown to its lookahead. *)

  type step_error =
    [ `Round_limit of int * int
      (** first round refused, last round the session can execute: up
          to it, [round + delay] stays below {!Packed.max_deadline} for
          every color *)
    | `Finished ]

  val string_of_step_error : step_error -> string

  val check_step : t -> rounds:int -> (unit, step_error) Stdlib.result
  (** Whether the next [rounds] steps may run: the session is not
      finished and none of them executes a round at or past the round
      limit ({!Packed.max_deadline} minus the largest delay bound).  A
      caller that steps [k] rounds checks first, so a refused request
      mutates nothing. *)

  val step : t -> unit
  (** Execute the next round: drop → arrival → [mini_rounds] ×
      (reconfigure → execute), then [Round_end], with the same event
      emission, fault probes and profiling spans as {!run}.
      @raise Invalid_argument, before any mutation, where
      {!check_step} refuses one round; or if the policy returns a
      malformed assignment. *)

  type reconfigure_error =
    [ `Bad_delta of int
    | `Bad_n of int
    | `Bad_delay of int * int  (** color, requested delay *)
    | `Unknown_color of int
    | `Delay_reduced_while_pending of int
      (** shrinking a delay bound with jobs of that color still pending
          would reorder their deadlines; drain the color first *)
    | `No_factory  (** {!of_instance} sessions can't re-derive a policy *)
    | `Policy_rejected of string
    | `Finished ]

  val string_of_reconfigure_error : reconfigure_error -> string

  val reconfigure :
    t ->
    ?delta:int ->
    ?n:int ->
    ?delay:(int * int) list ->
    unit ->
    (unit, reconfigure_error) Stdlib.result
  (** Change Δ, the resource count and/or per-color delay bounds
      [(color, bound)] between rounds.  Validates everything before
      mutating anything; on success the policy is re-instantiated at
      the new operating point (cache colors persist — growing [n]
      black-pads, shrinking truncates).  Reconfiguration itself is not
      charged; subsequent recolorings are charged at the Δ in force
      when they happen. *)

  val finish : ?expect_drained:bool -> t -> result
  (** Seal the session and return its accounting.  [expect_drained]
      asserts no jobs are pending (the batch drivers' invariant at
      horizon).  The session accepts no calls afterwards. *)

  (** {2 Observation} *)

  val round : t -> int
  (** Next round to execute = rounds executed so far. *)

  val n : t -> int

  val delta : t -> int

  val delay : t -> int array
  (** The session's own array, not a copy: the session never writes it
      (a reconfiguration of a bound replaces it), and a caller must
      not. *)

  val num_colors : t -> int

  val pending_jobs : t -> int

  val nonidle_colors : t -> int

  val future_arrivals : t -> int
  (** Jobs fed (or preloaded) for the current round or later that have
      not yet entered the pending store. *)

  val cache : t -> Types.color array
  (** A copy of the current configuration. *)

  val executed : t -> int

  val dropped : t -> int

  val reconfigurations : t -> int

  val cost : t -> Cost.t
  (** Accounting so far; the same value {!finish} will seal. *)

  val finished : t -> bool

  (** {2 Checkpointing} *)

  val checkpointable : t -> bool
  (** A streamed, unfinished session whose policy has a
      {!Policy.codec}. *)

  val save : t -> Wire.writer -> unit
  (** Append the session's complete live state: round, n, Δ, delay
      bounds, the cost, charge, execution and drop counters (totals and
      per color), the cache, the pending buckets, the fed future
      arrivals (by round, each batch in feed order) and the policy's
      own state.  Equal states save equal bytes.
      @raise Invalid_argument unless {!checkpointable}. *)

  val load :
    ?name:string ->
    config ->
    Policy.factory ->
    Wire.reader ->
    (t, string) Stdlib.result
  (** Rebuild a session from what {!save} wrote: the factory
      re-instantiates the policy at the saved (Δ, n, delay) and the
      policy's state is loaded into it.  [config.n] is overridden by
      the saved n; the factory and [config.mini_rounds] must be the
      ones the saved session ran with.  Stepping the result with the
      same calls as the saved session decides identically — the
      restore fast path of the service layer (doc/SERVICE.md).  Every
      section is decoded straight into the structures the session
      keeps.  [Error] names what was malformed; input {!save} cannot
      have written is refused, so a session that loads saves exactly
      the bytes it was loaded from. *)

  val set_sink : t -> Rrs_obs.Sink.t -> unit
  (** Replace the session's event sink from the next round on.  The
      service layer restores a session with {!Rrs_obs.Sink.null}
      (journal replay is not observed), then attaches its live one. *)
end

val run : config -> Instance.t -> Policy.factory -> result
(** Runs the policy on the instance to completion.
    @raise Invalid_argument if the policy returns an assignment of the
    wrong length or with an out-of-range color. *)

val run_policy : config -> Instance.t -> Policy.t -> result
(** Same with an already-instantiated policy (single use: policies are
    stateful). *)
