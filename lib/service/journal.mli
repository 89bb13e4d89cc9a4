(** The write-ahead journal of a service session.

    A header naming the session's creation parameters (format version,
    policy id, n, Δ, delay bounds, mini-rounds), then one line per
    state-changing command {e after} it was applied successfully
    (log-after-apply: a command that crashes the server never reaches
    the journal, so replay cannot re-crash on it; the client's un-acked
    command is the at-most-once loss window — doc/SERVICE.md, "Restart
    semantics").

    {b Version 3}, the one version read and written.

    - {e Segments.}  The journal is cut into segment files at every
      checkpoint.  Segment 0, [journal.jsonl], opens with the JSON
      header line; the segment that starts at op [N > 0],
      [journal.N], opens with [# journal 3 ops=N chain=C], the op count
      and chain value it starts at.  A restore from a checkpoint reads
      only the segments from that checkpoint's op on, and the server
      {!retire}s the segments no kept checkpoint needs.
    - {e Line checks.}  Every op line is the canonical {!Protocol} line
      of the op — [submit ROUND COLOR COUNT] with the resolved absolute
      round, [step [K]], or [reconfigure KEY=VALUE ...] — then [" #"]
      and six hex digits of a {!Rrs_core.Wire.Hash} chain: the hash of
      the op text seeded with the chain value of the line before (of
      the header, for the first op).  An edited, flipped, moved or
      removed line fails its own check or the next one's.  The protocol
      parser strips [#] comments, so a segment is itself an
      [rrs serve] script.
    - {e The newline rule.}  A final line without its newline is a torn
      tail, dropped with a {!tear} report carrying its exact byte
      offset; a complete line that fails its check or does not decode
      is corruption anywhere, the last line included.

    A header of any other version (version 2 wrote no checks and no
    segments, version 1 one JSON object per op) is a {!Bad_header}
    naming the version.

    Replaying the ops from a state — the header's fresh session, or a
    checkpoint's machine state — reproduces the live session
    byte-identically: sessions are deterministic functions of this
    sequence.  {!fold} streams the ops one at a time. *)

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

val segment_name : int -> string
(** The file name of the segment that starts at the op count:
    [journal.jsonl] for 0, [journal.N] otherwise. *)

val segment_of_name : string -> int option
(** The inverse of {!segment_name}, for directory listings. *)

type tear = {
  segment : string;  (** the segment's file name *)
  line : int;  (** 1-based line number of the dropped torn tail *)
  offset : int;  (** byte offset where the torn line starts *)
  reason : string;
}
(** A torn trailing line {!fold} dropped: the crash interrupted the
    final append, the op was never acked, dropping it is the documented
    at-most-once behavior.  Truncating the segment to exactly [offset]
    bytes removes the tear.  With [offset = 0] it is a segment whose
    header line was cut short: a checkpoint's rotation was interrupted
    before any op went there, and removing the file removes the
    tear. *)

val describe_tear : dir:string -> tear -> string

(** Why a journal refused to load.  Every corruption case names the
    segment, the 1-based line in it and the byte offset where the bad
    bytes start. *)
type load_error =
  | Missing  (** no segment 0 *)
  | Empty
  | Bad_header of { offset : int; reason : string }  (** segment 0's *)
  | Corrupt_body of {
      segment : string;
      line : int;
      offset : int;
      reason : string;
    }
      (** a complete line that fails its check or does not decode, a
          segment header that does not continue the journal, or a torn
          line with a later segment after it *)

val describe_load_error : dir:string -> load_error -> string

(** {2 Positions} *)

type anchor = { ops : int; chain : string }
(** A point of the journal: after [ops] ops, where the chain value is
    [chain] (16 hex digits).  A checkpoint records the anchor it was
    taken at, and a segment starts at one. *)

type position
(** Where a read stands: a segment, an offset in its file, the op count
    and the chain value. *)

val top : string -> (header * position, load_error) result
(** The header of the journal in the directory, from segment 0, and
    the position before its first op. *)

val at : string -> anchor -> position option
(** The start of the segment at [anchor.ops], when its first line names
    that anchor (for segment 0: when the header line hashes to
    [anchor.chain]).  Reads that line only and decodes no op. *)

val bytes_read : position -> int
(** Journal bytes read to reach the position, from the first line of
    the segment {!top} or {!at} started in. *)

val fold :
  string ->
  position ->
  init:'a ->
  f:('a -> op -> 'a) ->
  ('a * tear option * position, load_error) result
(** Read the journal in the directory from the position on, one line at
    a time, through every segment that continues it: [f] gets each op
    in order.  The second component reports a dropped torn tail, when
    there was one; the third is where the journal's intact part ends,
    the position to reopen its writer at.  On [Corrupt_body], [f] has
    already seen the ops before the bad line.  Exceptions from [f]
    propagate (the file is closed). *)

(** An append handle: the open segment's file descriptor and one reused
    line buffer.  Each {!append} formats its op once into that buffer,
    takes its check from the chain, and hands the line to the OS in one
    [write(2)] — no stdio buffer sits in between — so a process crash
    loses at most the in-flight line.  Nothing is [fsync]ed. *)
type writer

val create : string -> header -> writer
(** Truncate segment 0 in the directory and write the header — a fresh
    session. *)

val append_to : string -> position -> segments:int list -> writer
(** Open the segment a {!fold} ended in for appending at its end — a
    restored session.  [segments] names the segment files on disk, for
    {!retire}. *)

val anchor : writer -> anchor
(** The point after the last append. *)

val append : writer -> op -> unit
(** Write the op's line ({!op_to_line}, its check and a newline), then
    advance the chain.  A failed write raises [Unix.Unix_error] before
    the chain or the op count advance, so {!anchor} still names only
    whole lines; the caller must treat the session as ahead of its
    journal (the transport wedges it, as for the [serve.journal] fault
    probe, which fires first). *)

val rotate : writer -> reuse_below:int -> unit
(** Start a new segment at the op count reached, write its header line
    and append there from now on.  The file is the oldest segment's
    that starts before [reuse_below], when there is one — one the
    caller is about to {!retire} — renamed to a temp name, overwritten
    in place and cut to the header, then renamed to the new segment's
    name; otherwise it is created.  Nothing happens when the open
    segment starts at that op count already.  A failure raises and
    leaves the writer on the old segment. *)

val retire : writer -> below:int -> unit
(** Remove the segment files that start before the op count. *)

val temp_prefix : string
(** The name prefix of the temp file {!rotate} reuses a segment under;
    a kill can leave one behind, which holds no op anyone needs. *)

val close : writer -> unit
