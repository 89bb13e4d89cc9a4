(** Replay a built workload as a live arrival stream.

    A stream is a cursor over an instance's per-round arrival batches:
    each {!next} yields one round's batch, in round order, so a driver
    can feed an {!Rrs_core.Engine.Session} (or a running [rrs serve]
    process) exactly what the batch engine would have seen — the bridge
    between the offline families and the streaming scheduler.

    {!to_script} renders the same stream as service-protocol lines
    (doc/SERVICE.md), turning any family into a scripted [rrs serve]
    session. *)

type t

val of_instance : Rrs_core.Instance.t -> t
(** Stream the instance's arrivals.  The cursor starts before round 0
    and runs through the instance horizon (inclusive), so driving a
    session with it covers the rounds {!Rrs_core.Engine.run} would
    simulate. *)

val delta : t -> int

val delay : t -> int array
(** A copy of the per-color delay bounds. *)

val num_colors : t -> int

val rounds : t -> int
(** Total rounds the stream spans = instance horizon + 1. *)

val next : t -> (int * (Rrs_core.Types.color * int) list) option
(** The next round number and its arrival batch (possibly empty), or
    [None] once the stream is past the horizon.  Batches come out in
    ascending round order, colors in ascending color order within a
    batch — the order {!Rrs_core.Instance.arrivals_by_round} fixes. *)

val feed_session : t -> Rrs_core.Engine.Session.t -> upto:int -> unit
(** Consume stream rounds [<= upto] and feed their batches into the
    session at their true arrival rounds.
    @raise Invalid_argument if the session refuses a feed (preloaded or
    finished session, or a stream round already executed). *)

val to_script : ?step_chunk:int -> t -> Buffer.t -> unit
(** Append the whole remaining stream to [buf] as service-protocol
    lines: [submit ROUND COLOR COUNT] for every arrival, a [step k]
    after each chunk of [step_chunk] rounds (default 64), and a final
    [state] + [quit].  Piping the result into [rrs serve] replays the
    family end to end. *)
