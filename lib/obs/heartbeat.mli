(** Periodic health snapshots for long-running schedules.

    A heartbeat consumes the engine's event sink ({!attach}): per
    round it counts [Reconfigure], [Execute] and [Drop] events, and
    closes the round at its [Round_end] (the round's Δ and wall
    latency).  Every K rounds it emits one JSON object — round reached,
    cumulative costs, recolorings, round-latency percentiles {e since
    the last beat}, allocation/GC gauges — to an owned JSONL stream
    (flushed per line, so it can be tailed live), a single-line status
    file, and a Prometheus exposition file ({!Metrics.expose}) when a
    registry is attached.  Both files are rewritten by
    {!File_commit.replace}, which keeps the beat before as [FILE.prev].
    [rrs status] renders the latest line of the stream or the status
    file (of its [.prev] while it is absent).  A write that fails
    (the directory vanished, the disk is full) is counted in the beat
    line's ["write_errors"] field (present once non-zero), its
    temporary file removed, and the run goes on.

    A run's beat sequence is a pure function of the round stream; the
    clock only stamps ["seconds_since"].

    A heartbeat observes events and never feeds anything back into a
    decision path — the 130-case differential suite runs with a
    heartbeat attached to one arm and requires bit-identical results.
    Several engines (a parallel sweep) may feed one heartbeat
    concurrently, each through its own {!attach}: totals accumulate
    under the beat lock; the GC gauges are then approximate (counters
    are per-domain, sampled from whichever domain beats).

    Like the recorder and the profiler, a heartbeat can be installed
    ambiently ({!with_heartbeat}, DLS-scoped, inherited by spawned
    domains): the experiment harness attaches it to every engine run it
    starts. *)

type t

val round_latency_max_us : int
(** Top of the round-latency scale (65535 µs): slower rounds clamp into
    it, in the beat percentiles and in the sampler's
    ["engine_round_latency_us"] histogram. *)

val create :
  ?every_rounds:int ->
  ?clock:(unit -> float) ->
  ?path:string ->
  ?status_path:string ->
  ?expose_path:string ->
  ?registry:Metrics.t ->
  ?extra:(unit -> (string * Json.t) list) ->
  unit ->
  t
(** [every_rounds] (default 64, [>= 1]) beats after that many observed
    rounds (an idle engine emits nothing).  [path] is an owned JSONL
    stream (created/truncated now, closed by {!finish}); [status_path]
    is replaced with the latest beat line and [expose_path] with
    [Metrics.expose registry] on every beat (requires [registry]), each
    through its [.prev] ({!File_commit.replace}).  [extra] contributes
    fields appended to every beat line (e.g. the service's counters).
    @raise Invalid_argument if [every_rounds < 1]. *)

val attach : t -> Sink.t -> Sink.t
(** A sink that feeds the heartbeat and forwards every event to the
    inner sink (as {!Flight_recorder.attach} does).  It keeps its own
    per-round counts, so make one per engine.  Each [Round_end] adds
    the round to the totals ([reconfig_cost] grows by
    [delta × recolorings]) and beats when the cadence is due; after
    {!finish} rounds are ignored. *)

val beat : t -> unit
(** Force a beat now (if anything was observed since the last one,
    or nothing was ever emitted).  No-op after {!finish}. *)

val finish : t -> unit
(** Emit one last beat line carrying ["final":true], close the owned
    stream.  Idempotent. *)

val beats : t -> int
val rounds_observed : t -> int

val write_errors : t -> int
(** Stream, status and exposition writes that failed so far.  A
    stream line written after the stream's file was removed counts as
    failed: it went into an unlinked file. *)

val last_line : t -> string option
(** The latest beat line emitted, if any — what the status file
    holds. *)

(** {2 Ambient scope} *)

val with_heartbeat : t -> (unit -> 'a) -> 'a
(** Install [t] as the ambient heartbeat for the dynamic extent of the
    thunk (also on raise); spawned domains inherit it.  The experiment
    harness attaches the ambient heartbeat to the engines it runs. *)

val ambient : unit -> t option
