(** Crash-consistency torture drills for the durability path.

    The drills build a real durable session (journal segments and
    rotated checkpoints, ended without a final checkpoint, exactly as a
    kill leaves them), mutate one artifact — truncate at a byte
    boundary, flip one byte, duplicate, edit or move one journal line,
    remove or add a segment — and then restore through
    {!Server.open_session}, classifying what the tiered recovery ladder
    did:

    - tier 0: clean restore, nothing to recover;
    - tier 1: torn journal tail dropped with a byte-offset warning;
    - tier 2: a checkpoint quarantined, journal replay carried on;
    - tier 3: restore refused ({!Server.Corrupt}) with a diagnostic.

    A case is {e contained} when the restore either refuses (tier 3) or
    produces exactly the state of straight-line application of the
    first acked ops, as many as it restored — no silent divergence, no
    stray exception.  Every journal line carries a check chained to the
    line before, so a changed line that a restore reads is refused.
    The contract for the rest: {e a segment that no restore reads can
    change no restored state} — a restore from the current checkpoint
    never opens the segments before it, so a mutation there restores
    the unchanged state at tier 0 (doc/SERVICE.md, "Failure matrix").

    Everything is deterministic: op sequences come from
    {!Rrs_prng.Rng}, mutation points enumerate the artifacts' bytes and
    lines. *)

open Rrs_service

type verdict = {
  case : string;  (** e.g. ["journal-truncate@journal.45:117"] *)
  tier : int;  (** 0..3, the highest recovery tier that engaged *)
  contained : bool;
  diverged : bool;
      (** restored state disagrees with the straight line of the acked
          ops it claims to hold — always a failure *)
  restored_ops : int;  (** ops the restore holds; 0 when it refused *)
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
    [checkpoint_every] (units of replay work, see {!Server.config})
    well below the ops' total work the fixture carries
    [checkpoint.json], [checkpoint.json.prev] and their two segments;
    it leaves a journal tail past the current checkpoint unless the
    last op triggered one. *)

(** {2 Mutators} *)

val truncate_file : string -> int -> unit
val flip_byte : string -> int -> unit
(** XOR byte [i] with [0x20] (flips case / perturbs digits, never a
    newline into a newline). *)

val duplicate_line : string -> int -> unit
(** Duplicate 1-based line [i] in place. *)

val restore_case :
  case:string -> ?ops:Journal.op list -> Server.config -> string -> verdict
(** Restore the (possibly mutated) durable directory and classify.
    With [ops], the ops the directory's session was fed, the restored
    state must be the straight line of the first of them the engine
    accepted, as many as the restore holds.  Without, it must be the
    state [checkpoint.json] recorded before the restore. *)

(** {2 Campaigns} — each builds a fixture from [ops], copies it,
    mutates the copy, restores it.  [stride] samples every [stride]-th
    mutation point (default 1: every byte). *)

val journal_truncate_campaign :
  ?stride:int -> Server.config -> ops:Journal.op list -> dir:string ->
  verdict list
(** Truncate each journal segment at every byte boundary. *)

val journal_flip_campaign :
  ?stride:int -> Server.config -> ops:Journal.op list -> dir:string ->
  verdict list
(** Flip every byte of each journal segment, one case per byte. *)

val journal_dup_campaign :
  Server.config -> ops:Journal.op list -> dir:string -> verdict list
(** Duplicate every line of each segment, its header included. *)

val journal_edit_campaign :
  Server.config -> ops:Journal.op list -> dir:string -> verdict list
(** Rewrite every op line with another value — still a valid op, with
    the old line's check kept.  In a segment a restore from the current
    checkpoint reads, the check fails and the restore refuses (tier 3);
    in one it does not read, the restore holds the unedited state
    (tier 0).  Any other tier is uncontained. *)

val journal_reorder_campaign :
  Server.config -> ops:Journal.op list -> dir:string -> verdict list
(** Swap every op line with the line after it, with the same tiers as
    the edit campaign. *)

val segment_boundary_campaign :
  Server.config -> ops:Journal.op list -> dir:string -> verdict list
(** At each segment's edges: the final newline dropped, the file cut
    to nothing and inside its header, the first and last bytes
    flipped. *)

val segment_presence_campaign :
  Server.config -> ops:Journal.op list -> dir:string -> verdict list
(** Each segment removed: tier 0 when the current checkpoint starts
    past it, tier 3 when no verified checkpoint covers the ops it held.
    An extra segment where the journal ends, when the last segment
    holds ops (its header does not continue the chain), and one past
    that end (the ops between are missing): tier 3 both. *)

val kill_rotation_campaign :
  Server.config -> ops:Journal.op list -> dir:string -> verdict list
(** A kill at each step of a checkpoint commit that rotates the
    journal into the file of the segment it retires: that file renamed
    to its temp name, rewritten to the new header, renamed to the new
    segment, then each of the checkpoint's renames and writes; and a
    new segment created empty, as a session's first rotations create
    theirs.  Every restore holds every journaled op and leaves no temp
    file, at tier 0, or tier 1 for the empty new segment. *)

val checkpoint_campaign :
  ?stride:int -> Server.config -> ops:Journal.op list -> dir:string ->
  verdict list
(** Truncate and flip every byte of [checkpoint.json]. *)

val prefix_campaign :
  ?torn:bool -> Server.config -> ops:Journal.op list -> dir:string ->
  verdict list
(** Kill-at-every-op: for every prefix length k, write a journal
    holding exactly the first k ops (with [torn], plus a torn fragment
    of op k+1) and restore — every one of the k ops restored, tier 1
    exactly when a torn fragment was planted. *)
