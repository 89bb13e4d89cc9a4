(** Supervised execution of one unit of work: wall-clock timeout,
    deterministic retry with exponential backoff + jitter, and typed
    failure capture.

    [run] never lets an exception escape: every outcome is
    [Ok value | Error failure], so a sweep of supervised tasks
    ({!Rrs_experiments.Registry.run_many}) survives any single raising,
    hanging or fault-injected member and keeps the siblings' results.

    {b Determinism.}  Backoff delays are computed from the policy's
    [seed] through {!Rrs_prng.Rng} — the delay sequence of a retried
    task is reproducible bit for bit.  The clock is injectable
    ({!clock}); tests pass a virtual clock and a recording [sleep], so
    no test ever calls [Unix.sleep].

    {b Timeouts.}  A timed-out attempt's domain cannot be killed
    (OCaml domains are not cancellable); it is abandoned — it keeps
    running to completion in the background while the supervisor
    returns {!Timed_out}.  Abandoned domains inherit the caller's
    telemetry and fault scopes, so their stray updates land in the
    task's own private registry, never a sibling's. *)

type clock = { now : unit -> float; sleep : float -> unit }

type error_class = Transient | Fatal

exception Timed_out of { name : string; seconds : float }

exception Skipped of string
(** The pseudo-failure of a task never started (a [keep_going:false]
    sweep stopped scheduling after an earlier failure). *)

type failure = {
  name : string;
  exn : exn;
  backtrace : Printexc.raw_backtrace;
  attempts : int;  (** attempts actually made (>= 1, 0 for skipped) *)
  phase : string;  (** ["exception"], ["timeout"], or ["skipped"] *)
  classified : error_class;
}

type policy = {
  timeout : float option;  (** per-attempt wall-clock budget, seconds *)
  retries : int;  (** additional attempts after the first *)
  backoff : float;  (** base delay before the first retry, seconds *)
  backoff_factor : float;  (** delay multiplier per further retry *)
  jitter : float;  (** extra delay fraction drawn uniformly in [0, j] *)
  seed : int;  (** seeds the jitter stream *)
  classify : exn -> error_class;  (** only [Transient] failures retry *)
  clock : clock;
}

val classify_default : exn -> error_class
(** {!Timed_out} and transient {!Rrs_fault.Injected} are [Transient];
    everything else — including [Out_of_memory], [Stack_overflow] and
    fatal injections — is [Fatal]. *)

val default : policy
(** No timeout, no retries, [backoff = 0.05 * 2^k] with jitter 0.5,
    seed 0, {!classify_default}, and the wall clock
    ([Unix.gettimeofday] / [Unix.sleepf]). *)

val run : ?policy:policy -> name:string -> (unit -> 'a) -> ('a, failure) result
(** Run the thunk under the policy.  Transient failures are retried up
    to [retries] times with backoff sleeps in between; fatal failures
    and exhausted retries return the last failure, with the attempt
    count and the raising attempt's backtrace.

    When a flight recorder with a dump directory is ambient
    ({!Rrs_obs.Flight_recorder.with_recorder} [~dump_dir]), every
    {e final} failure additionally commits a crash black-box via
    {!Rrs_obs.Flight_recorder.crash_dump} (name = the supervised
    [name], reason = the exception) before returning — retried
    attempts do not dump, and a dump error is swallowed so it can
    never escalate a contained failure. *)

val skipped : name:string -> failure
(** The failure value of a never-started task ({!Skipped}). *)

val pp_failure : Format.formatter -> failure -> unit
(** One line: name, attempts, phase, class, exception.  The backtrace
    is not included — print [backtrace] separately when wanted. *)
