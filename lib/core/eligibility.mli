(** The per-color bookkeeping shared by ΔLRU, EDF and ΔLRU-EDF
    (paper Section 3.1, "common aspects"): counters, counter wrapping
    events, eligibility, color deadlines, and the ΔLRU timestamp.

    The three algorithms differ only in their reconfiguration schemes; a
    policy owns one [Eligibility.t] and calls {!begin_round} at the start
    of every [reconfigure] call.  The call is idempotent within a round,
    so double-speed policies (two mini-rounds) stay correct.

    Only eligible colors are visited at their window boundaries (a
    heap of their deadlines): an ineligible color's boundaries only
    move its deadline, which is derived when read ({!color_deadline};
    doc/ALGORITHMS.md §2).

    Life of a color [ℓ] (delay bound [D], reconfiguration cost [Δ]):
    - at every multiple of [D] (drop phase): the timestamp becomes the
      round of the latest wrap event before this multiple; if [ℓ] is
      eligible and not cached it turns ineligible, its counter resets,
      and its current epoch ends;
    - on arrival of [c] jobs: the counter grows by [c]; reaching [Δ]
      wraps it (modulo [Δ]) — a {e counter wrapping event} — and makes
      the color eligible.

    The module also keeps the quantities the paper's analysis is built
    on: epochs (Section 3.2), wrap events (Lemma 3.11), and the
    eligible/ineligible drop split (Lemma 3.2 / Lemma 3.4). *)

type t

val create : ?sink:Rrs_obs.Sink.t -> Instance.t -> t
(** [sink] (default {!Rrs_obs.Sink.null}) receives the analysis events
    as they happen: [Epoch_open]/[Epoch_close], [Counter_wrap] (plus a
    [Credit] of [Δ] per wrap — the charging currency of Lemmas 3.3/3.11)
    and [Timestamp_update].  The event stream is a faithful superset of
    the counters below: counting events of a kind reproduces the
    corresponding totals exactly. *)

val begin_round :
  t -> view:Policy.view -> in_cache:(Types.color -> bool) -> unit
(** Process this round's drop-phase and arrival-phase bookkeeping.
    [in_cache] must reflect the cache as of the drop phase, i.e. before
    this round's reconfiguration — pass a membership test on
    [view.cache].  Safe to call once per mini-round (subsequent calls in
    the same round are no-ops).  A call that skips rounds (the first
    call of a policy built at round R > 0) processes every boundary it
    passed over at [view.round], so those colors' windows restart
    there: [ℓ.dd = view.round + D]. *)

val is_eligible : t -> Types.color -> bool
val timestamp : t -> Types.color -> int
(** [-1] when no counter wrapping event is visible yet. *)

val color_deadline : t -> Types.color -> int
(** The color's deadline [ℓ.dd] — end of its current batch window. *)

val counter : t -> Types.color -> int
val eligible_colors : t -> Types.color list
(** Ascending color order. *)

(** {2 Change notifications} *)

(** The per-color transitions that move a rank key of {!Ranking.Index},
    published as they happen so the index pays only for state that
    changed instead of re-deriving color lists every round:
    - [Became_eligible]/[Became_ineligible]: the eligibility flag
      flipped (arrival-phase wrap / drop-phase epoch end);
    - [Timestamp_bumped]: the ΔLRU timestamp took a new value (the
      timestamp update event of Section 3.4, also emitted to the sink
      as [Timestamp_update], which {!Super_epochs} consumes).

    Window boundaries move the color deadline [ℓ.dd] without a
    notification: the index ranks only nonidle eligible colors, whose
    key holds their earliest pending deadline, not [ℓ.dd]. *)
type change = Became_eligible | Became_ineligible | Timestamp_bumped

val on_change : t -> (change -> Types.color -> unit) -> unit
(** Make [f] the one subscriber called synchronously at every
    {!change}, with the color it concerns, after the state mutation it
    describes (reading the [Eligibility.t] from [f] sees the new
    state).  A later call replaces the subscriber.  A notification
    allocates nothing; [f] must not call {!begin_round}. *)

(** {2 Analysis instrumentation} *)

val epochs_total : t -> int
(** [numEpochs] so far: completed epochs plus, per color, one incomplete
    epoch if any job arrived since the last epoch end. *)

val epochs_ended : t -> Types.color -> int
val wrap_events_total : t -> int
val eligible_drops : t -> int
(** Jobs dropped while their color was eligible. *)

val ineligible_drops : t -> int
(** Jobs dropped while their color was ineligible. *)

(** {2 Checkpointing} *)

val save : t -> Wire.writer -> unit
(** Every per-color field (counter, color deadline, eligibility, last
    wrap, timestamp, epochs, wraps), [last_round], the epoch total and
    the eligible/ineligible drop split.  The boundary heap is
    a function of the eligible colors' deadlines and is not written. *)

val load : t -> Wire.reader -> unit
(** Overwrite the state of a fresh [t], built from the same instance
    parameters, with what {!save} wrote, decoded straight into its
    per-color records.  Notifies nothing.  An ineligible color whose
    timestamp is not its last wrap, or whose deadline is not past
    [last_round], is refused as malformed: {!save} cannot write one.
    @raise Wire.Malformed or [Invalid_argument] on input {!save} cannot
    have written; [t] is then left part-filled, to be discarded. *)
