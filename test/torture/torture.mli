(** Crash-consistency torture drills for the durability path.

    The drills build a real durable session (journal + rotated
    checkpoints, ended without a final checkpoint, exactly as a kill
    leaves them), mutate one artifact — truncate at a byte boundary,
    flip one byte, duplicate one journal line — and then restore
    through {!Server.open_session}, classifying what the tiered
    recovery ladder did:

    - tier 0: clean restore, nothing to recover;
    - tier 1: torn journal tail dropped with a byte-offset warning;
    - tier 2: a checkpoint quarantined, journal replay carried on;
    - tier 3: restore refused ({!Server.Corrupt}) with a diagnostic.

    A case is {e contained} when the restore either refuses (tier 3)
    or produces exactly the state obtained by straight-line application
    of the ops the mutated journal actually holds — no silent
    divergence, no stray exception.  Duplicated or value-flipped lines
    {e after the last checkpoint} are absorbed silently by design: the
    journal is the source of truth and no witness exists past the last
    anchor, so detection there is bounded by the checkpoint cadence
    (doc/SERVICE.md, "Failure matrix").

    Everything is deterministic: op sequences come from
    {!Rrs_prng.Rng}, mutation points enumerate the artifact's bytes. *)

open Rrs_service

type verdict = {
  case : string;  (** e.g. ["journal-truncate@117"] *)
  tier : int;  (** 0..3, the highest recovery tier that engaged *)
  contained : bool;
  diverged : bool;
      (** restored state disagrees with the straight-line state of the
          ops the (mutated) journal holds — always a failure *)
  detail : string;
}

type summary = {
  cases : int;
  contained : int;
  uncontained : int;
  divergences : int;
  tiers : int array;  (** length 4, verdicts per tier *)
}

val summarize : verdict list -> summary

val snapshot_of_line : string -> (Snapshot.t, string) result
(** Parse the first line of the string as a {!Snapshot.to_line} line:
    the [state] reply, or a checkpoint file (its second line is not
    looked at).  [snapshot_of_line (Snapshot.to_line s) = Ok s'] with
    [Snapshot.equal s s']. *)

val pp_snapshot : Format.formatter -> Snapshot.t -> unit
(** Every field {!Snapshot.equal} compares, so two snapshots that
    differ print differently. *)

val ops_of_seed : ?count:int -> colors:int -> int -> Journal.op list
(** A deterministic mixed op sequence (submits, small steps, delay
    reconfigurations) — the default [count] is 48. *)

val straight_line : Server.config -> Journal.op list -> Snapshot.t
(** Apply the ops to a fresh ephemeral session and snapshot it — the
    ground truth every restore is compared against.  Ops the engine
    refuses are skipped, exactly as the server skips them (a refused
    op is answered with [err ...] and never journaled). *)

val build_fixture : Server.config -> Journal.op list -> string -> unit
(** Run the ops through a durable host rooted at the directory (the
    config's [checkpoint_dir] is overridden), skipping refused ops,
    then abandon the session without a final checkpoint.  With
    [checkpoint_every] (units of replay work, see
    {!Server.config}) well below the ops' total work the fixture
    carries both [checkpoint.json] and [checkpoint.json.prev]; it
    leaves a journal tail past both unless the last op triggered a
    checkpoint. *)

(** {2 Mutators} *)

val truncate_file : string -> int -> unit
val flip_byte : string -> int -> unit
(** XOR byte [i] with [0x20] (flips case / perturbs digits, never a
    newline into a newline). *)

val duplicate_line : string -> int -> unit
(** Duplicate 1-based line [i] in place. *)

val restore_case : case:string -> Server.config -> string -> verdict
(** Restore the (possibly mutated) durable directory and classify. *)

(** {2 Campaigns} — each copies the fixture, mutates, restores.
    [stride] samples every [stride]-th mutation point (default 1:
    every byte / line). *)

val journal_truncate_campaign :
  ?stride:int -> Server.config -> ops:Journal.op list -> dir:string ->
  verdict list
(** Truncate the journal at every byte boundary from 0 to its length. *)

val journal_flip_campaign :
  ?stride:int -> Server.config -> ops:Journal.op list -> dir:string ->
  verdict list
(** Flip every byte of the journal, one case per byte. *)

val journal_dup_campaign :
  Server.config -> ops:Journal.op list -> dir:string -> verdict list
(** Duplicate every op line of the journal, one case per line. *)

val journal_edit_campaign :
  Server.config -> ops:Journal.op list -> dir:string -> verdict list
(** Rewrite every [submit] line of the journal with another job count,
    one case per line: the journal still decodes, so only the prefix
    hash of the full-state checkpoint keeps restore from loading it
    over the edit.  Below the previous checkpoint neither checkpoint
    verifies and the restore must refuse (tier 3); between the two the
    previous one verifies, so the current one is quarantined and the
    restore starts from the previous one (tier 2).  Past the current
    checkpoint nothing checksums the edit: the restore replays it
    (tier 0), and its state must be the straight line of the edited
    journal.  Any other tier is uncontained. *)

val checkpoint_campaign :
  ?stride:int -> Server.config -> ops:Journal.op list -> dir:string ->
  verdict list
(** Truncate and flip every byte of [checkpoint.json].  The journal is
    intact, so no case may refuse with a wrong state: every verdict
    must be tier ≤ 3 contained with the full straight-line state when
    the restore succeeds. *)

val prefix_campaign :
  ?torn:bool -> Server.config -> ops:Journal.op list -> dir:string ->
  verdict list
(** Kill-at-every-op: for every prefix length k, write a journal
    holding exactly the first k ops (with [torn], plus a torn fragment
    of op k+1) and restore — state must equal the straight line of the
    prefix, tier 1 exactly when a torn fragment was planted. *)
