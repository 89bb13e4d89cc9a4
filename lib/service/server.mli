(** The long-lived scheduler service: streaming
    {!Rrs_core.Engine.Session}s driven by the line protocol
    ({!Protocol}), journaled ({!Journal}) and checkpointed (the
    {!Snapshot} line and the session's machine state; doc/SERVICE.md,
    "The checkpoint format") by replay work and when a connection
    leaves the session ({!leave}).  A commit reuses the two
    checkpoint files: the new bytes overwrite [checkpoint.json.prev]
    in place under a temp name, [checkpoint.json] becomes [.prev] and
    the temp becomes [checkpoint.json], so no commit after a session's
    second creates a file or renames over one, and a complete
    checkpoint exists at every instant (doc/SERVICE.md, "The
    checkpoint commit").

    A server is a {!host}: a table of named sessions multiplexed over
    one engine process, with no command loop of its own; the loop is
    {!Transport}.  Every connection — a socket client, or the
    stdin/stdout pair of [rrs serve] without [--socket]/[--tcp] —
    starts on the {!default_session}, addresses the table through
    [open NAME] / [attach NAME], and has each command run by {!exec}.
    A session whose command faults is {!wedge}d and restored from its
    journal on next use; the other sessions never notice.

    Memory-boundedness contract: the server retains no per-round
    history — no recorded schedule, no response log; its resident state
    is each session (pending jobs + fed-ahead arrivals + policy state)
    and one journal append buffer per durable session.  On disk a
    session keeps two checkpoints and the journal segments that start
    at them (doc/SERVICE.md).

    {b Tiered recovery} (doc/SERVICE.md, "Failure matrix").  Restoring
    a durable session starts from the newest checkpoint that verifies:
    [checkpoint.json], else [checkpoint.json.prev] (read only then),
    else a fresh session at the journal header.  A checkpoint
    {e verifies} when its machine-state line passes its digest, the
    journal segment that starts at its op count names the same chain
    value, and the loaded state reproduces its snapshot line.  Restore
    loads that state and replays the segments from it on, reading no
    journal byte below it (counted in [serve_restore_journal_bytes]):
    with
    the current checkpoint less than [checkpoint_every] units of replay
    work, from [.prev] less than twice that plus the op that triggered
    the current checkpoint (counted in [serve_restore_replayed_ops] and
    [serve_restore_replayed_work]).  Then it classifies what it found:

    - {e torn journal tail} — the crash interrupted the final append;
      the un-acked op is dropped with a warning naming its exact byte
      offset (tier 1, today's at-most-once contract);
    - {e unreadable checkpoint} — one that fails to verify for any
      reason but its journal segment (a failing digest, a file
      with line 1 only, a state that does not load or does not
      reproduce line 1): derived state, quarantined to
      [checkpoint.json.corrupt-<n>] (tier 2);
    - {e unanchored checkpoint} — intact, but its segment is missing or
      names another chain value.  A current one the journal runs past
      is quarantined when [.prev] verifies (tier 2) and refuses
      otherwise (tier 3); an unanchored [.prev] is quarantined
      (tier 2);
    - {e missing acked ops} — an intact checkpoint was taken at more
      ops than the journal holds, or at as many and its segment is
      gone; the journal's chain ends before a segment file that starts
      later; or no checkpoint verifies and segment 0 is gone: the
      restore refuses (tier 3);
    - {e corrupt journal body} — a line that fails its check or does
      not decode: the source of truth cannot be trusted; a forensic
      copy of the segment is quarantined to [<segment>.corrupt-<n>]
      (the original stays in place so restarts keep refusing) and the
      restore refuses with a diagnostic naming the segment, line and
      byte offset (tier 3).  No checkpoint is judged then.

    A refused restore changes nothing on disk but the forensic copy
    (and the removal of temp files a killed commit left).

    Every recovery action increments a [serve_recovery_*] counter in
    the host metrics and, when a flight recorder with a dump directory
    is ambient, commits a black-box dump
    ({!Rrs_obs.Flight_recorder.crash_dump}). *)

val policies : (string * Rrs_core.Policy.factory) list
(** Policy ids [rrs serve --policy] accepts (the online subset of the
    simulate table — the pipeline policy needs the whole instance up
    front and cannot stream). *)

val factory_of_id : string -> (Rrs_core.Policy.factory, string) result

type config = {
  policy : string;  (** id from {!policies} *)
  n : int;
  delta : int;
  delay : int array;
  mini_rounds : int;
  checkpoint_dir : string option;
      (** root of the durable tree: the default session keeps
          its journal segments and checkpoints at the root (compatible
          with single-session layouts), named sessions live under
          [sessions/NAME/]; [None] = every session is ephemeral *)
  checkpoint_every : int;
      (** commit a checkpoint once the session's replay work since the
          last one reaches this many units; 0 = only on explicit
          [checkpoint] commands and at quit.  Replay work counts one
          unit per applied op (a [reconfigure] counts the number of
          colors: it rebuilds the policy's per-color state), per round
          run and per job executed or dropped.  A restored session's
          baseline is the work at the checkpoint it loaded. *)
  crash_after : int option;
      (** abandon the process (exit 70, no checkpoint, no finish) after
          that many applied ops — the deterministic kill the CI
          restart test and the torture drills use *)
  heartbeat : Rrs_obs.Heartbeat.t option;
      (** attached {e after} restore: journal replay never beats *)
  metrics : Rrs_obs.Metrics.t option;
      (** counts [serve_*] service/recovery/overload metrics; [None] =
          a private registry (readable via {!metrics}) *)
}

val default_config : config
(** dlru-edf, n = 8, Δ = 4, 8 colors with delay bounds 8, uni-speed,
    ephemeral, a checkpoint every 1024 units of replay work, no crash,
    private metrics. *)

exception Corrupt of string
(** Durable-state corruption that refuses restore (recovery tier 3):
    the journal or checkpoint cannot be trusted, so a restart must not
    silently continue. *)

(** {2 The session table} *)

val default_session : string
(** ["default"] — the session every connection addresses before any
    [open]/[attach]. *)

type session

val session_name : session -> string
val session_ops : session -> int
val session_notices : session -> string list
(** Recovery notes collected while restoring, oldest first (torn-tail
    drops, checkpoint quarantines). *)

val session_wedged : session -> string option
(** Set when a command failed after its apply (a journal append, any
    exception): the in-memory state can no longer be trusted to match
    the journal, so the session refuses further commands until it is
    reopened (restored from its journal). *)

val wedge : session -> string -> unit
(** Mark the session wedged with the given reason (counted as
    [serve_wedged]); closes the journal writer, so nothing appends to
    the journal or checkpoints the session until it is reopened. *)

val session_snapshot : session -> Snapshot.t
(** The observable state, at the session's current op count. *)

type host

val host : config -> host
(** A fresh host with an empty session table.  Raises nothing: the
    transport validates the config and refuses to start on a bad one. *)

val metrics : host -> Rrs_obs.Metrics.t
val sessions : host -> session list
(** Open sessions, oldest first (a reopened wedged session counts as
    new).  Sessions stay open until {!close_session},
    {!abandon_session} or the end of the transport. *)

val find_session : host -> string -> session option
(** Constant time: the table is hashed by name. *)

val open_session : host -> string -> session
(** Create — or, when durable state exists, restore through the tiered
    recovery ladder — the named session and add it to the table.
    Reopening a wedged session discards the untrusted in-memory state
    and restores from the journal.
    @raise Corrupt when recovery refuses (tier 3)
    @raise Invalid_argument on an invalid name or a name already open
    (and not wedged) — callers guard with {!find_session}. *)

val try_open : host -> string -> (session, string) result
(** {!open_session} with its failures as [Error]: a refused restore, an
    invalid or already-open name, and a filesystem error creating the
    session's directory or journal.  The table is unchanged by a
    failure, except that a wedged session being reopened stays
    dropped. *)

val checkpoint_session : host -> session -> Snapshot.t option
(** Commit a checkpoint now (rotating the previous one to
    [checkpoint.json.prev]): start a journal segment at the session's
    op count ({!Journal.rotate}, in the file of the segment this commit
    retires), write the snapshot line and the machine state anchored to
    that segment, then retire the segments before the checkpoint now in
    [.prev].  Both lines go through one buffer the host reuses; a
    failed rotation or write is counted in [serve_checkpoint_failures]
    before the exception propagates (a failed write removes its temp
    file), a commit in [serve_checkpoints].  [None], and nothing
    written, for an ephemeral session and for a {!wedge}d one, whose
    state is untrusted. *)

val leave : host -> session -> unit
(** A connection leaves the session (it switched to another one, or it
    closed): commit a checkpoint if the replay work since the last one
    reaches the session's number of colors, the work a [reconfigure]
    is charged, so the checkpoint never costs more than the replay it
    saves.  Does nothing for an ephemeral or {!wedge}d session or with
    [checkpoint_every = 0].  A commit that fails with [Unix_error] or
    [Sys_error] is counted in [serve_checkpoint_failures] and otherwise
    ignored: the previous checkpoint is still whole.  {!exec} calls it
    on a successful [open]/[attach] of another session. *)

val close_session : host -> session -> Rrs_core.Engine.result
(** Final checkpoint (none for a wedged session), close the journal,
    finish the engine session and remove it from the table. *)

val abandon_session : host -> session -> unit
(** Drop the session {e without} a final checkpoint: close the journal
    writer and remove it from the table, leaving durable state exactly
    as a kill would — the torture drills use this to build fixtures
    whose journal extends past the last checkpoint. *)

val apply_op : session -> Journal.op -> (unit, string) result
(** Apply one state-changing op to the live engine session, or refuse
    it with the reason.  Builds no reply text: {!exec} writes the ack,
    and restore replays the journal through the same apply. *)

val apply_within : float -> session -> Journal.op -> (unit, string) result
(** {!apply_op} with a budget of that many seconds on a [step k]: it
    stops at the first round boundary past the budget, after [j]
    rounds, [1 <= j <= k], and {!exec} journals [step j] and answers
    [ok stepped j of k rounds to round R] ([serve_deadline_cuts]). *)

val commit : host -> session -> Journal.op -> unit
(** Journal the (already applied) op, advance the op counters, commit
    a periodic checkpoint when due, and honor [crash_after].
    @raise Rrs_fault.Injected when the [serve.journal] probe fires —
    the caller must contain it ({!wedge}, then reopen). *)

(** What executing one command means for the connection that sent it. *)
type outcome =
  | Reply of string list  (** answer and keep going *)
  | Switch of session * string list
      (** [open]/[attach] succeeded: the client's current session
          changed, and the one it left was offered to {!leave} *)
  | Bye of string list
      (** [quit]: close this client after
          [ok bye round=R executed=E dropped=D recolorings=X cost=C],
          the current session's accounting so far (it is not
          finished) *)
  | Stop of string list  (** [shutdown]: drain and stop the server *)

val exec :
  ?apply:(session -> Journal.op -> (unit, string) result) ->
  host ->
  session ->
  Protocol.command ->
  outcome
(** Execute one parsed command against the client's current session.
    [apply] (default {!apply_op}) runs the session mutation, which is
    then journaled ({!commit}) as the op that ran: a [step k] that
    {!apply_within} stopped after [j] rounds as [step j]. *)

val greeting : session -> string list
(** The lines a client sees when a session becomes current: one
    ["ok warning: ..."] per recovery notice, then the
    ["ok session ..."] / ["ok restored ..."] line. *)
