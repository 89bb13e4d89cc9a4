(** A DLS-scoped hierarchical span profiler with GC/allocation sampling
    and Chrome trace-event export.

    The profiler answers the question the metrics registry cannot:
    {e where inside one run} the time and the allocation go.  A profile
    is a set of per-domain {e tracks}; each track is a balanced sequence
    of span begin/end events with wall-clock timestamps and the GC
    allocation counters sampled at both boundaries, so every span knows
    its duration {e and} the words it allocated.  Minor words come from
    [Gc.minor_words] (the calling domain's); promoted and major words
    from [Gc.quick_stat], which OCaml 5 sums over all domains.
    [Gc.counters] is avoided: under OCaml 5.1 it can leave its result
    floats dangling, and a profile keeps those floats.

    {b Scoping.}  Like the fault plane ([Rrs_fault]) and the telemetry
    scope ([Harness.with_telemetry]), the active profiler is dynamically
    scoped through [Domain.DLS] and {e inherited by spawned domains}:
    a [Pool] worker or a [Supervisor] runner domain started inside
    {!with_profiler} records onto the same profile, on its own track
    (tracks are keyed by [Domain.self ()], so tracks never interleave
    writers).

    {b Zero cost when disabled.}  Instrumented call sites use
    {!enter}/{!leave} (or {!span}).  When no profiler is attached
    {e anywhere in the process}, both are one relaxed atomic load and a
    conditional branch — no DLS lookup, no closure, no allocation.  The
    per-round overhead of a fully instrumented engine run with profiling
    off is below the measurement noise (see doc/TELEMETRY.md for
    numbers); [test/test_prof.ml] checks the decisions are bit-identical
    with and without an attached profiler.

    {b Thread safety.}  Each domain writes only to its own track; track
    registration is lock-free.  Read ({!to_chrome_string}, {!events})
    only after the domains recording into the profile have finished. *)

type t
(** One profile: an epoch (its time origin) plus the tracks recorded
    under it. *)

val create : unit -> t

val with_profiler : t -> (unit -> 'a) -> 'a
(** Attach [t] for the dynamic extent of the thunk (also on raise).
    Domains spawned inside inherit the attachment.  Nesting installs
    the inner profiler for the inner extent. *)

val active : unit -> bool
(** Is a profiler attached to this domain right now?  When [false],
    {!enter}/{!leave}/{!instant} are no-ops. *)

val enter : string -> unit
(** Open a span on the calling domain's track.  Spans nest: {!leave}
    closes the innermost open span.  The branchless-when-off primitive
    for hot call sites where wrapping a closure ({!span}) would itself
    allocate. *)

val leave : string -> unit
(** Close the innermost open span.  The argument is documentation (call
    sites read as balanced pairs); the emitted end event always carries
    the name of the span actually open, so traces stay balanced even if
    a call site mislabels its leave.  A [leave] with no open span is
    ignored. *)

val span : string -> (unit -> 'a) -> 'a
(** [enter]/[leave] around the thunk, exception-safe ([Fun.protect]).
    For cold call sites; the closure argument is evaluated (and
    allocated by the caller) whether or not profiling is on. *)

val instant : string -> unit
(** A zero-duration marker event on the calling domain's track. *)

val events : t -> int
(** Total events recorded so far across all tracks. *)

(** {2 Export}

    Chrome trace-event JSON (the ["traceEvents"] array format), loadable
    in Perfetto ({: https://ui.perfetto.dev}) or [chrome://tracing].
    Every track becomes one named thread; timestamps are microseconds
    from the profile's creation, clamped monotone per track; span-end
    events carry [args] with the minor/promoted/major words allocated
    inside the span (inclusive of children).  Spans still open at export
    (e.g. after an exception) are closed at the track's last
    timestamp. *)

val to_chrome_string : t -> string

val write_chrome : t -> string -> unit
(** Write {!to_chrome_string} to a path via a temp file and atomic
    rename, so readers never observe a torn trace. *)
