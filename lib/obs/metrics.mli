(** A lightweight metrics registry: named counters, gauges, histograms
    and phase timers, snapshotable to canonical JSON.

    Instruments are created once (get-or-create by name) and updated on
    hot paths with O(1), allocation-free operations; {!to_json} is the
    cold export path.  Histograms reuse {!Rrs_stats.Histogram} (Fenwick
    backed, exact quantiles); timers reuse {!Rrs_stats.Running}
    (Welford) over span durations measured with [Unix.gettimeofday] —
    no [Mtime] dependency, microsecond-ish resolution, which is plenty
    for per-phase spans.

    Instrument names are free-form; the convention used across the repo
    is [<subsystem>_<quantity>] (e.g. ["engine_runs"],
    ["harness_reconfig_cost"]).

    {b Thread safety.}  Every operation of this module is safe to call
    from any number of OCaml 5 domains concurrently: counters and
    gauges are single atomics (lock-free updates), histogram and timer
    updates take a per-instrument mutex, and registry get-or-create /
    export take a registry mutex.  Concurrent [inc]s are never lost —
    the totals of a parallel run equal the sequential totals exactly.
    The only non-linearizable read is {!to_json} (and {!timers}) taken
    {e while} writers are still running: each instrument is snapshotted
    consistently, but the sections are read one instrument at a time.
    {!timer_stats} and {!histogram_stats} return mutex-protected
    snapshot copies, so they are safe mid-run too.
    For contention-free parallel aggregation, give each shard its own
    [t] and fold them with {!merge_into} (see Pool.map_reduce in
    [rrs_parallel]). *)

type t

val create : unit -> t

(** {2 Counters} — monotone integer totals. *)

type counter

val counter : t -> string -> counter
(** Get or create.  @raise Invalid_argument if the name is registered
    as a different instrument kind. *)

val inc : counter -> int -> unit
(** @raise Invalid_argument on a negative increment. *)

val value : counter -> int

(** {2 Gauges} — last-write-wins floats. *)

type gauge

val gauge : t -> string -> gauge
val set : gauge -> float -> unit
val gauge_value : gauge -> float
(** [nan] before the first {!set}. *)

(** {2 Histograms} — integer observations, exact quantiles. *)

type histogram

val histogram : t -> string -> max_value:int -> histogram
(** Get or create; [max_value] is only consulted on creation. *)

val observe : histogram -> int -> unit

val histogram_stats : histogram -> Rrs_stats.Histogram.t
(** A {e snapshot copy} of the bucket state, taken under the
    instrument's mutex: safe to read (and keep) while concurrent
    observers are still running — it reflects some consistent prefix of
    the observation stream. *)

(** {2 Phase timers} — wall-clock spans. *)

type timer
type span

val timer : t -> string -> timer

val start : timer -> span
(** Spans may nest and interleave freely (each is independent). *)

val stop : span -> float
(** Records and returns the span duration in seconds (clamped to [>= 0]
    — [gettimeofday] is not monotonic, durations are).
    @raise Invalid_argument if the span was already stopped. *)

val time : timer -> (unit -> 'a) -> 'a
(** Runs the thunk inside a span (recorded even if the thunk raises). *)

val timer_count : timer -> int
val timer_total : timer -> float
(** Sum of recorded span durations, seconds. *)

val timer_stats : timer -> Rrs_stats.Running.t
(** A {e snapshot copy} of the Welford aggregate, taken under the
    timer's mutex.  Safe to call while spans are still being recorded
    on other domains: the returned value is always a state the
    aggregate actually passed through — never a torn multi-word read —
    and it is yours (later spans do not mutate it).  {!timer_count} and
    {!timer_total} remain the cheap point reads. *)

(** {2 Shard-and-merge} *)

val merge_into : into:t -> t -> unit
(** Fold every instrument of the source registry into [into]
    (get-or-create by name): counter values add, gauges take the
    source's value when it has one (last-write-wins), histograms add
    bucket-wise, timers combine their Welford aggregates.  [src] is not
    modified.  Safe against concurrent updates of either registry; the
    fold is name-ordered and never holds two locks at once.
    @raise Invalid_argument on an instrument-kind clash or mismatched
    histogram domains. *)

(** {2 Export} *)

val counters : t -> (string * int) list
(** [(name, value)] of every counter, in ascending name order. *)

val timers : t -> (string * int * float) list
(** [(name, span count, total seconds)] in ascending name order. *)

val to_json : t -> Json.t
(** [{"counters":{...},"gauges":{...},"histograms":{...},
    "timers":{...}}] with every section's fields in ascending name
    order — canonical, so snapshots diff cleanly. *)

val expose : t -> string
(** Prometheus text exposition (format 0.0.4), instruments in
    ascending name order: counters as [counter], set gauges as [gauge]
    (unset gauges are omitted — absence, not NaN), histograms as
    [summary] blocks with exact 0.5/0.95/0.99 quantiles plus
    [_sum]/[_count], timers as [<name>_seconds] summaries with
    [_sum]/[_count].  Names are folded onto the Prometheus grammar
    ([[a-zA-Z_:][a-zA-Z0-9_:]*], bad characters become ['_']).  Safe
    to call mid-run: multi-word instruments are snapshotted under
    their mutex, same discipline as {!to_json}. *)
