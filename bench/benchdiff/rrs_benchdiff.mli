(** Bench-artifact regression gate: compare a freshly produced
    run-summary artifact ([BENCH_core.json], [BENCH_robust.json], …)
    against a committed baseline, metric by metric, with per-metric
    noise tolerances — the comparison engine behind [bench/check.exe].

    Records pair up by [id].  Within a pair, the compared metric space
    is the cost breakdown ([cost.reconfig]/[cost.drop]/[cost.total])
    plus every [analysis] field; phase timings are pure wall clock and
    are never gated.  Each metric resolves to the first matching
    {!rule}, which says which direction is {e worse} and how much
    worsening the noise floor absorbs.

    The default rules encode the repo's gating philosophy: quantities
    that are deterministic functions of the code (costs, divergence
    and containment counts, round counts) must match {e exactly};
    machine-relative quantities (the incremental-vs-rebuild [speedup],
    allocations per round) get tight relative tolerances because they
    barely depend on the host; absolute wall-clock quantities
    (seconds, rounds/sec) get loose tolerances or are informational,
    because CI hardware is not the baseline's hardware.  Pass your own
    [rules] (first match wins, falling through to the default rules
    and their catch-all) to tighten a local same-machine
    comparison. *)

type direction =
  | Higher_better  (** regression = current below baseline *)
  | Lower_better  (** regression = current above baseline *)
  | Exact  (** any difference is a regression *)
  | Info  (** report the delta, never gate on it *)

type rule = {
  pattern : string;
      (** matched against the metric name: exact, or with one ['*']
          wildcard anywhere (["cost.*"], ["*_seconds"],
          ["analysis.*_rounds_per_sec"]) *)
  direction : direction;
  rel_tol : float;
      (** worsening below this fraction of the baseline passes *)
  abs_tol : float;  (** …or below this absolute amount (whichever is
      more permissive) *)
}

val rule :
  ?rel_tol:float -> ?abs_tol:float -> string -> direction -> rule
(** Both tolerances default to [0.]. *)

type verdict = Regression | Improvement | Within | Informational

type delta = {
  id : string;  (** run_summary id the metric belongs to *)
  metric : string;  (** ["cost.total"], ["analysis.speedup"], … *)
  baseline : float;
  current : float;
  worsening : float;
      (** signed relative worsening ([> 0] = worse), with the
          convention [infinity] when the baseline is 0 and the values
          differ *)
  verdict : verdict;
  matched : rule;
}

type report = {
  deltas : delta list;
      (** ranked: regressions first, then improvements, then the rest,
          each by descending |relative change| *)
  missing_ids : string list;
      (** baseline records with no counterpart in current — always a
          regression (coverage must not silently shrink) *)
  new_ids : string list;  (** current records absent from baseline *)
  regressions : int;  (** gated failures: regression deltas + missing ids *)
}

val compare_summaries :
  ?rules:rule list ->
  baseline:Rrs_obs.Run_summary.t list ->
  current:Rrs_obs.Run_summary.t list ->
  unit ->
  report
(** [rules] are tried before the default rules. *)

val compare_files :
  ?rules:rule list ->
  baseline:string ->
  current:string ->
  unit ->
  (report, string) result
(** {!Rrs_obs.Run_summary.load} both paths, then
    {!compare_summaries}. *)

val render : ?max_rows:int -> report -> string
(** The ranked delta report as an aligned text table (worst first),
    with a pass/fail summary line.  [max_rows] (default 40) caps the
    non-regression tail; regressions always print. *)

val ok : report -> bool
(** [regressions = 0]. *)
