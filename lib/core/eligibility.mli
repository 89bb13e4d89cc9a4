(** The per-color bookkeeping shared by ΔLRU, EDF and ΔLRU-EDF
    (paper Section 3.1, "common aspects"): counters, counter wrapping
    events, eligibility, color deadlines, and the ΔLRU timestamp.

    The three algorithms differ only in their reconfiguration schemes; a
    policy owns one [Eligibility.t] and calls {!begin_round} at the start
    of every [reconfigure] call.  The call is idempotent within a round,
    so double-speed policies (two mini-rounds) stay correct.

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
    the same round are no-ops). *)

val is_eligible : t -> Types.color -> bool
val timestamp : t -> Types.color -> int
(** [-1] when no counter wrapping event is visible yet. *)

val color_deadline : t -> Types.color -> int
(** The color's deadline [ℓ.dd] — end of its current batch window. *)

val counter : t -> Types.color -> int
val eligible_colors : t -> Types.color list
(** Ascending color order. *)

(** {2 Change notifications} *)

(** The typed per-color state transitions, published as they happen so
    consumers (the incremental ranking {!Ranking.Index}, telemetry) can
    pay only for state that changed instead of re-deriving color lists
    every round.  Each constructor names the input of the EDF/ΔLRU rank
    keys that just changed:
    - [Became_eligible]/[Became_ineligible]: the eligibility flag
      flipped (arrival-phase wrap / drop-phase epoch end);
    - [Deadline_moved]: the color deadline [ℓ.dd] advanced to the end
      of a new batch window (fires at every window boundary);
    - [Timestamp_bumped]: the ΔLRU timestamp took a new value;
    - [Wrapped]: a counter wrapping event (no rank-key change by
      itself; exposed for completeness and telemetry). *)
type change =
  | Became_eligible of Types.color
  | Became_ineligible of Types.color
  | Deadline_moved of Types.color
  | Timestamp_bumped of Types.color
  | Wrapped of Types.color

val on_change : t -> (change -> unit) -> unit
(** Register a listener called synchronously at every {!change}, after
    the state mutation it describes (reading the [Eligibility.t] from
    the listener sees the new state).  Listeners run in registration
    order and must not call {!begin_round}. *)

(** {2 Analysis instrumentation} *)

val on_timestamp_update : t -> (Types.color -> Types.round -> unit) -> unit
(** Register a listener called at every {e timestamp update event}
    (Section 3.4): the drop-phase moment a color's timestamp changes
    value.  Listeners drive the super-epoch bookkeeping
    ({!Super_epochs}); multiple listeners are called in registration
    order. *)

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
    a function of the color deadlines and is not written. *)

val load : t -> Wire.reader -> unit
(** Overwrite the state of a fresh [t], built from the same instance
    parameters, with what {!save} wrote.  Fires no listener.
    @raise Wire.Malformed or [Invalid_argument] on input {!save} cannot
    have written. *)
