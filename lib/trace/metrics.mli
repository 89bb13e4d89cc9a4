(** Per-round time series collected from a live run.

    The sampler is a consumer of the engine's event sink: {!attach} it
    in front of the sink given to [Engine.config ~sink], and every
    round records the pending backlog, the number of nonidle colors,
    the distinct cached colors, and the cumulative drop and recoloring
    counts — all derived from the engine's own Drop, Arrival,
    Reconfigure, Execute and Mini_round events — and each [Round_end]
    counts a round (["engine_rounds"]) and its wall latency
    (["engine_round_latency_us"], µs, clamped at
    {!Rrs_obs.Heartbeat.round_latency_max_us}).  Those events carry
    post-projection colors and a Reconfigure event is exactly a charged
    recoloring, so the counts equal [Engine.result]'s under any
    [cost_projection] by construction; every other event (a policy's
    analysis events on a shared sink) is ignored.  The counts are kept
    in an {!Rrs_obs.Metrics} registry (counters ["drops"] /
    ["recolorings"], a ["backlog"] histogram), so they export alongside
    the rest of the telemetry; the series drive the queue-dynamics views
    of the examples and can be exported as JSONL (canonical) or CSV
    (legacy).  Colors count post-projection, and the cache is tracked
    from Reconfigure events, so a run whose resource count changes
    mid-stream ([Engine.Session.reconfigure ~n]) is outside its model. *)

type sample = {
  round : Rrs_core.Types.round;
  backlog : int;  (** pending jobs after this round's arrivals *)
  nonidle_colors : int;
  cached_colors : int;  (** distinct non-black colors configured *)
  cumulative_drops : int;
  cumulative_recolorings : int;
}

type t

val create : ?registry:Rrs_obs.Metrics.t -> unit -> t
(** [registry], when given, hosts the instruments (counters ["drops"],
    ["recolorings"] and ["engine_rounds"], histograms ["backlog"]
    observed at each round's first mini-round and
    ["engine_round_latency_us"]) instead of a private registry — pass
    the one the policy already writes to (e.g. its ["ranking_update"]
    counter) so one [metrics_registry] line carries everything. *)

val attach : t -> Rrs_obs.Sink.t -> Rrs_obs.Sink.t
(** A sink that feeds every event to the sampler and then forwards it
    to the inner sink (as {!Rrs_obs.Flight_recorder.attach} does).
    Give it to the engine only: one run per sampler. *)

val samples : t -> sample list
(** Chronological (one per round; mini-rounds are merged). *)

val round_latency : t -> Rrs_stats.Histogram.t
(** A copy of the round-latency histogram (µs) so far. *)

val to_jsonl : t -> string
(** One [{"type":"metrics_sample",...}] line per round followed by one
    [{"type":"metrics_registry",...}] line — the format documented in
    [doc/TELEMETRY.md] and written by [rrs simulate --metrics]. *)

val to_csv : t -> string
(** Legacy sampler CSV (kept for spreadsheet imports). *)

val backlog_summary : t -> Rrs_stats.Summary.t
(** Distribution of the backlog over rounds.
    @raise Invalid_argument when no samples were collected. *)
