(** Algorithm ΔLRU-EDF (paper Section 3.1.3) — the paper's main
    contribution: a combination of ΔLRU and EDF that is resource
    competitive for rate-limited [Δ | 1 | D_ℓ | D_ℓ] with power-of-two
    delay bounds (Theorem 1).

    Reconfiguration scheme per round (with [n] resources, [n] a multiple
    of 4):
    - the ΔLRU component selects the [n/4] eligible colors with the most
      recent timestamps (the {e LRU colors});
    - the remaining eligible colors are ranked EDF-style; every nonidle
      color among the top [n/4] rankings that is not already cached is
      brought in;
    - when the distinct capacity [n/2] overflows, the lowest-ranked
      non-LRU cached color is evicted (repeatedly);
    - the second half of the cache replicates the first, so every cached
      color executes up to two jobs per round.

    The LRU component stops the thrashing that sinks pure EDF; the EDF
    component stops the underutilization that sinks pure ΔLRU.

    {!make_tuned} exposes the design space around the paper's point for
    ablation studies: the split of the distinct capacity between the two
    components, and the replication invariant. *)

type instrumented = { policy : Policy.t; eligibility : Eligibility.t }

val make :
  ?sink:Rrs_obs.Sink.t ->
  ?registry:Rrs_obs.Metrics.t ->
  Instance.t ->
  n:int ->
  instrumented
(** The paper's configuration: [n/4] LRU slots, [n/4] EDF slots,
    replicated.  [sink] is handed to the underlying
    {!Eligibility.create}, streaming the analysis events.  Both
    components rank through prefix queries on a {!Ranking.Index}.
    [registry], when given, receives the ["ranking_update"] counter.
    @raise Invalid_argument if [n] is not a positive multiple of 4. *)

val policy : Policy.factory

val make_tuned :
  ?sink:Rrs_obs.Sink.t ->
  ?registry:Rrs_obs.Metrics.t ->
  lru_slots:int ->
  distinct_slots:int ->
  replicated:bool ->
  Instance.t ->
  n:int ->
  instrumented
(** Ablation variant: [lru_slots] of the [distinct_slots] go to the ΔLRU
    component, the rest to the EDF component (whose addition quota equals
    its slot count).  [lru_slots = distinct_slots] degenerates to ΔLRU,
    [lru_slots = 0] to EDF.  When [replicated], [n] must equal
    [2 * distinct_slots]; otherwise [n = distinct_slots].
    @raise Invalid_argument on inconsistent sizes. *)

val lru_slots : n:int -> int
(** [n/4] — size of the ΔLRU component's quota in the paper's layout. *)

val distinct_capacity : n:int -> int
(** [n/2] — total distinct colors cached in the paper's layout. *)
