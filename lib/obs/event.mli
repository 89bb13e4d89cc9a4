(** Typed telemetry events.

    Two families, one stream:

    {b Round-phase events} mirror the engine's four phases
    (drop → arrival → reconfigure → execute, {!Rrs_core.Engine}) plus a
    mini-round marker for double-speed runs and a round-end marker
    once the round is committed.  [Reconfigure] is emitted
    only for {e charged} recolorings — after the engine's
    [cost_projection] — so summing them always reproduces the engine's
    cost accounting; they are the engine's only record of a run.

    {b Analysis events} are the quantities the paper's proofs charge
    against (Sections 3.2–3.4): epoch opens/closes and counter wrapping
    events (eligibility machinery), timestamp updates and super-epoch
    completions (Lemma 3.5), and credit transfers — each wrap banks [Δ]
    credit, the charging currency of Lemmas 3.3/3.11.

    Every event serialises to one canonical JSON object
    [{"type":<kind>,"round":<r>,...}]; {!of_json} inverts {!to_json}
    exactly, so JSONL trace files round-trip byte for byte. *)

type t =
  | Drop of { round : int; color : int; count : int }
      (** drop phase; [color] is post-projection, matching the cost. *)
  | Arrival of { round : int; color : int; count : int }
      (** arrival phase; [color] is post-projection, like every phase event. *)
  | Reconfigure of {
      round : int;
      mini_round : int;
      resource : int;
      from_color : int;
      to_color : int;
    }  (** a charged recoloring (colors post-projection). *)
  | Execute of { round : int; mini_round : int; resource : int; color : int }
  | Mini_round of { round : int; mini_round : int }
      (** start of a reconfigure+execute repetition. *)
  | Round_end of { round : int; delta : int; latency_us : int }
      (** the round is committed (the session's next round is
          [round + 1]).  [delta] is the Δ its recolorings were charged
          at, so Σ over rounds of (its [Reconfigure] events × [delta])
          is the reconfiguration cost even across a live Δ change;
          [latency_us] is the round's wall-clock time — the only
          non-deterministic field of the stream.  Per-round consumers
          (heartbeat, sampler) close their round here. *)
  | Epoch_open of { round : int; color : int }
      (** first arrival of the color since its last epoch end. *)
  | Epoch_close of { round : int; color : int; epochs_ended : int }
      (** the color turned ineligible at a batch boundary;
          [epochs_ended] is its new completed-epoch count. *)
  | Counter_wrap of { round : int; color : int; wraps : int }
      (** the color's Δ-counter wrapped; [wraps] is its new total. *)
  | Timestamp_update of { round : int; color : int }
      (** ΔLRU timestamp changed at a batch boundary (Section 3.4). *)
  | Super_epoch of {
      round : int;
      index : int;
      active_colors : int;
      updates : int;
    }
      (** the [index]-th super-epoch completed: [active_colors] distinct
          colors updated ([= 2m]), [updates] total update events so far. *)
  | Credit of { round : int; color : int; amount : int }
      (** [amount = Δ] banked by a counter wrap — the analysis currency
          that pays for the epoch's reconfigurations. *)

val kind : t -> string
(** The ["type"] tag: ["drop"], ["arrival"], ["reconfigure"],
    ["execute"], ["mini_round"], ["round_end"], ["epoch_open"],
    ["epoch_close"],
    ["counter_wrap"], ["timestamp_update"], ["super_epoch"],
    ["credit"]. *)

val round : t -> int
val to_json : t -> Json.t
val of_json : Json.t -> (t, string) result
val to_line : t -> string
(** [Json.to_string (to_json e)] — one JSONL line (no newline). *)

val of_line : string -> (t, string) result
