(** Algorithm EDF (paper Section 3.1.2) and its analysis variant Seq-EDF
    (Section 3.3).

    EDF's reconfiguration scheme: rank the eligible colors (nonidle
    first, then ascending deadline, ties by increasing delay bound then
    the consistent color order); every nonidle eligible color in the top
    [n/2] rankings that is not cached is brought in, evicting the
    lowest-ranked cached colors when the cache is full.  Captures only
    the deadline aspect; Appendix B shows it is not resource competitive
    (it thrashes).

    Seq-EDF is the same scheme given the full capacity for distinct
    colors (no replication half); DS-Seq-EDF is Seq-EDF run by a
    double-speed engine ([mini_rounds = 2]). *)

type instrumented = { policy : Policy.t; eligibility : Eligibility.t }

val make :
  ?sink:Rrs_obs.Sink.t ->
  ?registry:Rrs_obs.Metrics.t ->
  Instance.t ->
  n:int ->
  instrumented
(** Standard EDF: [n/2] distinct slots, replicated.  [sink] is handed
    to the underlying {!Eligibility.create}.  The ranking is a prefix
    query on a {!Ranking.Index}.  [registry], when given, receives the
    ["ranking_update"] counter.
    @raise Invalid_argument if [n] is not a positive multiple of 2. *)

val policy : Policy.factory

val make_seq :
  ?sink:Rrs_obs.Sink.t ->
  ?registry:Rrs_obs.Metrics.t ->
  Instance.t ->
  n:int ->
  instrumented
(** Seq-EDF: [n] distinct slots, no replication.
    @raise Invalid_argument if [n < 1]. *)

val seq_policy : Policy.factory
