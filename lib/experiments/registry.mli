(** All experiments by id — the single source the CLI and the bench
    executable enumerate. *)

val all : (string * (unit -> Harness.outcome)) list
(** In DESIGN.md §5 order. *)

val ids : unit -> string list
val find : string -> (unit -> Harness.outcome) option

type success = {
  outcome : Harness.outcome;
  summary : Rrs_obs.Run_summary.t;
  metrics : Rrs_obs.Json.t;
      (** the experiment's private registry ({!Rrs_obs.Metrics.to_json}),
          snapshotted before the fold into the process-wide telemetry —
          so it only holds this experiment's instruments and is
          identical for every [--jobs] *)
}

val run_summarized : string -> success option
(** Run one experiment and also return its canonical run artifact:
    engine cost and run-count deltas from a private telemetry registry
    scoped to the experiment ({!Harness.with_telemetry} — exact even
    under concurrency), total wall time as the ["experiment"] phase
    timing.  [None] for unknown ids.  [summary] is what
    [rrs experiment --out] writes, one JSONL line per experiment;
    [metrics] is the [--metrics] registry line. *)

type run_result = (success, Rrs_robust.Supervisor.failure) result

val run_many :
  ?jobs:int ->
  ?policy:Rrs_robust.Supervisor.policy ->
  ?keep_going:bool ->
  string list ->
  (string * run_result) list
(** Run the given experiments (unknown ids are skipped), spreading them
    over [jobs] domains (default 1; experiments' own inner sweeps then
    degrade to sequential — see the nesting note in
    [Rrs_parallel.Pool]).  Results are in input order and the telemetry
    totals and cost/count artifact fields are identical for every
    [jobs]; only wall-clock fields vary (strip them with
    {!Rrs_obs.Run_summary.strip_timings} to compare artifacts).  This
    is the [rrs experiment --jobs] / [bench] path.

    Every experiment runs under {!Rrs_robust.Supervisor.run} with
    [policy] (default {!Rrs_robust.Supervisor.default}: no timeout, no
    retries): a raising, hanging or fault-injected experiment comes
    back as [Error failure] while its siblings keep their results —
    the sweep itself never raises.  With [keep_going = false] (default
    [true]), experiments not yet started when a failure lands are
    skipped ({!Rrs_robust.Supervisor.skipped}); already-running
    siblings still finish.  Which in-flight tasks slip through the
    abort check depends on scheduling at [jobs > 1]; at [jobs = 1]
    exactly the tasks after the first failure are skipped. *)

val failures :
  (string * run_result) list -> (string * Rrs_robust.Supervisor.failure) list
(** The failed entries of a {!run_many} result, in order. *)
