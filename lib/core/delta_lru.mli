(** Algorithm ΔLRU (paper Section 3.1.1).

    Reconfiguration scheme: keep the [n/2] eligible colors with the most
    recent timestamps cached (ties by the consistent color order),
    replicated into the second half of the cache.  Captures only the
    recency aspect of the input; Appendix A shows it is not resource
    competitive (it can pin idle colors and underutilize). *)

type instrumented = { policy : Policy.t; eligibility : Eligibility.t }
(** The policy plus analysis access to its eligibility machinery
    (epochs, wrap events, eligible/ineligible drop split). *)

val make :
  ?sink:Rrs_obs.Sink.t ->
  ?registry:Rrs_obs.Metrics.t ->
  Instance.t ->
  n:int ->
  instrumented
(** [sink] is handed to the underlying {!Eligibility.create}, streaming
    the analysis events (epochs, wraps, timestamp updates).  The
    selection is a prefix query on a {!Ranking.Index}.  [registry], when
    given, receives the ["ranking_update"] counter.
    @raise Invalid_argument if [n] is not a positive multiple of 2. *)

val policy : Policy.factory
(** [make] with the instrumentation discarded — for plain engine runs. *)
