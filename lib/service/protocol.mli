(** The line-oriented command protocol of [rrs serve].

    One command per line; tokens separated by blanks; blank lines and
    [#]-comments are ignored.  Grammar (doc/SERVICE.md):

    {v
    submit [ROUND] COLOR COUNT     inject COUNT jobs of COLOR at ROUND
                                   (default: the current round)
    step [N]                       execute N rounds (default 1)
    state                          emit the session state, one JSON line
    reconfigure KEY=VALUE ...      delta=D | n=N | delay=COLOR:BOUND[,..]
    checkpoint                     force a checkpoint commit now
    open NAME                      create (or restore) the named session
                                   and make it current
    attach NAME                    switch to an already-open session
    sessions                       list the open sessions, one line each
    shutdown                       drain every session and stop the server
    quit                           checkpoint, finish, exit
    help                           print this grammar
    v}

    The parser is total: it returns a typed command or an error string,
    never raises — [test/test_service.ml] fuzzes it with arbitrary byte
    strings and near-miss mutations of valid commands to keep that
    contract honest. *)

type command =
  | Submit of { round : int option; color : int; count : int }
  | Step of int
  | State
  | Reconfigure of {
      delta : int option;
      n : int option;
      delay : (int * int) list;
    }
  | Checkpoint
  | Open of string
  | Attach of string
  | Sessions
  | Shutdown
  | Quit
  | Help

val parse : string -> (command option, string) result
(** [Ok None] for blank lines and comments. *)

val add_command : Rrs_core.Wire.writer -> command -> unit
(** Append the canonical form of the command — what {!parse} accepts
    and the journal records — to the writer, without a newline and
    without building an intermediate string. *)

val command_to_string : command -> string
(** The bytes {!add_command} writes, as a string. *)

val valid_session_name : string -> bool
(** Session names become directory components of the durable state
    tree: [[A-Za-z0-9_.-]+], nonempty, not starting with a dot. *)

val grammar : string
(** The grammar block above, for [help] and usage errors. *)
