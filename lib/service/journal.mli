(** The write-ahead journal of a service session.

    One file ([journal.jsonl]): a JSON header line naming the session's
    creation parameters (format version, policy id, n, Δ, delay bounds,
    mini-rounds), then one line per state-changing command {e after} it
    was applied successfully (log-after-apply: a command that crashes
    the server never reaches the journal, so replay cannot re-crash on
    it; the client's un-acked command is the at-most-once loss window —
    doc/SERVICE.md, "Restart semantics").

    {b Version 2}, the one version read and written: every op line is
    the canonical {!Protocol} line of the op — [submit ROUND COLOR
    COUNT] with the resolved absolute round, [step [K]], or
    [reconfigure KEY=VALUE ...] — so a journal body is itself an
    [rrs serve] script.  A protocol line is not self-delimiting the way
    a JSON object is, so every op line must end in a newline: a final
    line without one is a torn tail even when it parses.  A header of
    any other version (version 1 wrote one JSON object per op) is a
    {!Bad_header} naming the version.

    Replaying the header + ops through a fresh {!Rrs_core.Engine.Session}
    reproduces the live session byte-identically — sessions are
    deterministic functions of this sequence.  {!fold} streams the ops
    one at a time.  It tolerates a torn final line (the crash left a
    partial write): it is dropped with a {!tear} report carrying the
    exact byte offset of the torn line, so an operator can
    [truncate -s OFFSET] the file to silence the warning; a bad line
    {e earlier} than the tail is corruption and refuses to load with an
    equally precise {!load_error}. *)

type op =
  | Submit of { round : int; color : int; count : int }
      (** [round] is absolute — the server resolves a default-round
          submit before journaling *)
  | Step of int
  | Reconfigure of {
      delta : int option;
      n : int option;
      delay : (int * int) list;
    }

type header = {
  policy : string;
  n : int;
  delta : int;
  delay : int array;
  mini_rounds : int;
}

val header_to_line : header -> string

val op_to_line : op -> string
(** The canonical protocol line, {!Protocol.command_to_string}. *)

val op_of_line : string -> (op, string) result
(** The op-line decoder: {!Protocol.parse}, accepting only a submit
    with a round, a step or a reconfigure. *)

type tear = {
  line : int;  (** 1-based line number of the dropped torn tail *)
  offset : int;  (** byte offset where the torn line starts *)
  reason : string;  (** why it was torn: a parse error or no newline *)
}
(** A torn trailing line {!fold} dropped: the crash interrupted the
    final append, the op was never acked, dropping it is today's
    documented at-most-once behavior.  [offset] is where the torn
    bytes begin — truncating the file to exactly [offset] bytes
    removes the tear. *)

val describe_tear : path:string -> tear -> string
(** One human line: the dropped line number, the byte offset, the
    truncation hint, and the parse error. *)

(** Why a journal refused to load.  Every corruption case names the
    1-based line and the byte offset where the bad bytes start, so
    diagnostics are precise enough to act on. *)
type load_error =
  | Missing
  | Empty
  | Bad_header of { offset : int; reason : string }
  | Corrupt_body of { line : int; offset : int; reason : string }
      (** an op line before the tail failed to parse — mid-file
          corruption, not a crash artifact *)

val describe_load_error : path:string -> load_error -> string

(** {2 Positions}

    A journal prefix is named by its length, the lines it holds and a
    {!Rrs_core.Wire.Hash} digest of its bytes.  The writer keeps that
    running hash as it appends, so a checkpoint can record where in the
    journal its state was taken, and a restore can check that the
    journal still starts with exactly those bytes before it trusts the
    checkpoint. *)

type anchor = { offset : int; lines : int; digest : string }
(** A prefix: [offset] bytes holding [lines] lines (the header
    included) that hash to [digest]. *)

type position
(** Where a {!fold} stopped: an {!anchor} together with the running
    hash, from which a reader or a writer carries on. *)

val resume : string -> anchor -> (header * position) option
(** Read the first [anchor.offset] bytes of the journal at the path.
    [Some] when the file is at least that long, starts with a valid
    header line and the prefix hashes to [anchor.digest]; [None]
    otherwise, or when the file cannot be read.  Costs one sequential
    read and hash of the prefix; decodes no op. *)

val fold :
  ?from:header * position ->
  string ->
  init:(header -> 'a) ->
  f:('a -> op -> 'a) ->
  ('a * tear option * position, load_error) result
(** Read a journal one line at a time: [init] gets the header, [f] each
    op in order.  The second component reports a dropped torn trailing
    line, when there was one; the third is where the journal's intact
    part ends (at the torn line, when there is one), the position to
    reopen its writer at.  With [from] (what {!resume} returned), the
    fold starts at that position instead of the top: only the suffix is
    read, decoded and hashed.  On [Corrupt_body], [f] has already seen
    the ops before the bad line.  Exceptions from [init] and [f]
    propagate (the file is closed). *)

(** An append handle: the journal's file descriptor and one reused line
    buffer.  Each {!append} formats its op once into that buffer and
    hands it to the OS in one [write(2)] — no stdio buffer sits in
    between — so a process crash loses at most the in-flight line.
    Nothing is [fsync]ed. *)
type writer

val create : string -> header -> writer
(** Truncate [path] and write the header — a fresh session. *)

val append_to : string -> position -> writer
(** Open an existing journal for appending at the position a {!fold}
    of it ended at — a restored session. *)

val anchor : writer -> anchor
(** The prefix written so far (everything up to the last append). *)

val append : writer -> op -> unit
(** Write the op's line ({!op_to_line} and a newline), then feed the
    running hash from the same bytes.  A failed write raises
    [Unix.Unix_error] before the hash or the line count advance, so
    {!anchor} still names only whole lines; the caller must treat the
    session as ahead of its journal (the transport wedges it, as for
    the [serve.journal] fault probe, which fires first). *)

val close : writer -> unit
