(** The experiment harness: one {!outcome} per paper claim.

    The paper (a theory paper) has no tables or figures; each experiment
    id corresponds to a theorem, lemma or appendix construction as listed
    in DESIGN.md §5, and its [claim] field states the shape the paper
    predicts.  [findings] summarise what this run actually measured, so
    the bench log is self-contained and EXPERIMENTS.md can be checked
    against it. *)

type outcome = {
  id : string;
  title : string;
  claim : string;  (** what the paper predicts (the shape to match) *)
  table : Rrs_report.Table.t;
  findings : string list;  (** measured take-aways from this run *)
}

val print : outcome -> unit

val print_markdown : outcome -> unit
(** Same content with a GitHub-markdown table — for pasting measured
    numbers into EXPERIMENTS.md. *)

(** {2 Telemetry}

    Every engine run started through {!run_policy} (or reported with
    {!record_result}) is accounted in an {!Rrs_obs.Metrics} registry:
    counters [engine_runs], [reconfig_cost], [drop_cost] and timer
    [engine_run].  {!Registry.run_summarized} diffs {!snapshot}s around
    one experiment to produce its {!Rrs_obs.Run_summary.t}.

    {b Which registry} is dynamically scoped: runs are accounted to the
    registry installed by the innermost {!with_telemetry}, defaulting
    to the process-wide {!telemetry}.  The scope is inherited by
    domains spawned under it (the [Rrs_parallel.Pool] workers of an
    experiment's inner sweep), so concurrent experiments on sibling
    domains each account to their own registry.  The registries
    themselves are domain-safe ({!Rrs_obs.Metrics}), so the totals of a
    parallel sweep equal the sequential totals exactly. *)

val telemetry : Rrs_obs.Metrics.t
(** The process-wide default registry. *)

val current : unit -> Rrs_obs.Metrics.t
(** The registry engine runs are currently accounted to on this
    domain. *)

val with_telemetry : Rrs_obs.Metrics.t -> (unit -> 'a) -> 'a
(** [with_telemetry reg thunk] accounts every engine run made by
    [thunk] — transitively, including in pool workers it spawns — to
    [reg].  Restores the outer scope on exit (also on raise). *)

type snapshot = {
  runs : int;  (** engine runs completed so far *)
  reconfig : int;  (** total reconfigurations charged *)
  drop : int;  (** total jobs dropped *)
  seconds : float;  (** total wall time inside the engine *)
}

val snapshot : unit -> snapshot
(** [snapshot_of (current ())]. *)

val snapshot_of : Rrs_obs.Metrics.t -> snapshot

val record_result : Rrs_core.Engine.result -> unit
(** Fold one engine result into {!telemetry} — for experiments that
    drive {!Rrs_core.Engine.run} directly rather than via
    {!run_policy} (the run's wall time is not captured). *)

(** {2 Shared helpers} *)

val engine_sink : unit -> Rrs_obs.Sink.t
(** The sink for one engine run: the ambient flight recorder and
    heartbeat when installed, else {!Rrs_obs.Sink.null}.  One call per
    run: a heartbeat attach counts one engine's rounds. *)

val run_policy :
  Rrs_core.Instance.t ->
  n:int ->
  Rrs_core.Policy.factory ->
  Rrs_core.Engine.result
(** Uni-speed engine run on {!engine_sink}, without schedule
    recording. *)

val ratio_cell : int -> int -> string
(** [ratio_cell cost denom] formats [cost/denom] with 2 decimals ("inf"
    when [denom = 0] and [cost > 0], "1.00" when both are 0). *)

val ratio : int -> int -> float
