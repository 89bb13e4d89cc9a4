(** The service's one command loop: a single-threaded [select] event
    loop that multiplexes connections speaking the {!Protocol} line
    protocol over one {!Server.host}.  A connection is a client of a
    Unix-domain or TCP listener, or the pre-connected stdin/stdout
    pair ([Stdio]) that [rrs serve] runs on without
    [--socket]/[--tcp].

    Each connection addresses the shared session table by name
    ([open NAME] / [attach NAME]); it starts attached to
    {!Server.default_session} and is greeted with that session's
    {!Server.greeting}.  All session mutations are serialized by the
    loop, so two clients attached to the same session never race;
    per-connection reply order always matches command order.  [quit]
    answers [ok bye round=R executed=E dropped=D recolorings=X cost=C]
    for the connection's current session and closes the connection.
    A socket connection that ends, for whatever reason, leaves its
    current session ({!Server.leave}) unless the server is stopping,
    whose drain checkpoints every session anyway.

    {b The stdio connection} follows three rules:

    - {e paced reads}: it reads stdin only once every command it has
      read has run and its reply was written, and takes one command at
      a time out of what it read, so a piped script is answered line
      for line and never [busy], and a stalled reader of stdout pauses
      the server instead of growing its buffer (the slow-client policy
      does not apply); the descriptors stay blocking (they share their open
      file description with the parent shell) and are read and written
      only after [select] reports them ready;
    - {e EOF drains}: end of input stops reading, and the server stops
      the way [shutdown] does — every queued command runs first;
    - {e its end is the server's end}: [quit], EOF or a write error
      on it stops the server.  The caller keeps ownership of both
      descriptors.

    {b Overload control} ({!limits}):

    - {e admission}: a command arriving for a session whose queue
      already holds [queue_limit] commands is refused immediately with
      [busy queue session=NAME depth=D retry-after=SECONDS] and counted
      as [serve_busy] — nothing is enqueued, so no acked op is ever
      dropped;
    - {e load shedding}: when the total queued backlog exceeds
      [shed_threshold], read-only commands ([state], [sessions],
      [help]) are answered with [busy shed ...] at execution time
      (preserving reply pairing) so the cycles go to [submit]/[step];
      counted as [serve_shed];
    - {e descriptor limit}: a connection accepted on a descriptor
      [select] cannot watch (at or above [FD_SETSIZE]; every open
      durable session holds its journal descriptor) is answered
      [busy connections fd-limit retry-after=SECONDS], closed at once
      and counted as [serve_busy];
    - {e slow clients}: a socket connection with more than
      [write_buffer_limit] pending bytes (output the peer has not taken
      yet; bytes already sent do not count), or that has not accepted
      a byte for [write_stall_timeout] seconds while output is pending,
      is dropped and counted as [serve_slow_client_drops] — one reader
      that stops reading cannot wedge the loop or grow memory
      unboundedly;
    - {e deadlines}: with [command_deadline = Some t], a [step] stops
      at the first round boundary past [t] seconds and is journaled as
      the rounds it ran ({!Server.apply_within}); [submit] and
      [reconfigure] are short and run whole.

    {b One failure model.}  Faults injected at the [serve.accept] and
    [serve.write] probes are contained to the connection they hit
    (counted, connection dropped); one at [serve.command] answers
    [err ...]; one at [serve.journal] (after the apply), or any
    exception out of a command, also wedges the session, so the next
    command restores it from its journal without the un-acked op.  No
    other session is touched, and the loop itself never dies from a
    client.

    Cost per command: the session is found by a hash lookup, the
    [serve_*] counters are resolved once per run, input lines are cut
    out of one shared read buffer, and replies are written straight
    from each connection's output buffer.  A socket connection writes
    its replies at once when the command it just ran was the last one
    it had queued, so a lockstep client costs one [select] per command
    ([serve_select_rounds]); a connection with further commands queued
    has its replies written in the next round, batched.  The stdio
    connection writes only after [select] reports stdout writable.

    Shutdown: [shutdown] from any client, the end of the stdio
    connection, or the [stop] callback returning [true] (the CLI wires
    SIGTERM/SIGINT to it) stops accepting, executes every
    already-queued command, answers [ok bye shutdown] on every
    connection that has not said goodbye, flushes replies on a bounded
    grace budget, closes every connection and then every session
    (final checkpoint each).  Unix-domain socket files are unlinked on
    exit. *)

type address =
  | Unix_socket of string  (** path of the socket file (created fresh) *)
  | Tcp of string * int  (** bind host, port; port 0 picks a free port *)
  | Stdio of Unix.file_descr * Unix.file_descr
      (** one pre-connected connection reading the first descriptor and
          writing the second, and no listener *)

val pp_address : Format.formatter -> address -> unit

type limits = {
  max_conns : int;
      (** accepted connections beyond this are greeted with
          [busy connections ...] and closed *)
  queue_limit : int;  (** per-session queued-command bound *)
  shed_threshold : int;
      (** total queued commands above which read-only commands shed *)
  command_deadline : float option;
      (** the longest a command may hold the loop, seconds, up to one
          round; [None] = no deadline *)
  write_buffer_limit : int;
      (** pending outbound bytes per connection (not yet taken by the
          peer) *)
  write_stall_timeout : float;
      (** seconds a connection may refuse bytes while output is pending *)
}

val default_limits : limits
(** 64 connections, 64 queued commands per session, shed above 256
    queued total, no deadline, 1 MiB of pending output, 5 s write
    stall, 64 KiB lines, retry-after 0.05 s. *)

type stats = {
  conns_accepted : int;
  conns_dropped : int;
  commands : int;
  busy : int;
  shed : int;
  slow_drops : int;
  wedges : int;
  select_rounds : int;  (** [select] calls: ~1 per lockstep command *)
}
(** Mirror of the [serve_*] counters, returned from {!run} so drivers
    without a metrics registry still see what happened. *)

val run :
  ?limits:limits ->
  ?stop:(unit -> bool) ->
  ?on_ready:(address -> unit) ->
  Server.config ->
  address ->
  (stats, [ `Config of string | `Fatal of string ]) result
(** Listen, serve until shutdown, tear down.  [on_ready] fires once
    with the bound address (the actual port for [Tcp (_, 0)]) before
    the first [accept] — tests use it to learn where to connect.
    [stop] is polled between select rounds (at most ~50 ms apart).
    [`Config] is a configuration or bind failure: nothing was served.
    [`Fatal] means the [Stdio] connection's first session could not
    be opened (its durable state refuses to restore); the connection
    was answered [err fatal: DIAGNOSTIC] first.  Client misbehavior is
    never an [Error]. *)
