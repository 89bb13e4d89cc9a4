module Wire = Rrs_core.Wire

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

let grammar =
  String.concat "\n"
    [
      "submit [ROUND] COLOR COUNT     inject COUNT jobs of COLOR at ROUND";
      "                               (default: the current round)";
      "step [N]                       execute N rounds (default 1)";
      "state                          emit the session state, one JSON line";
      "reconfigure KEY=VALUE ...      delta=D | n=N | delay=COLOR:BOUND[,..]";
      "checkpoint                     force a checkpoint commit now";
      "open NAME                      create (or restore) the named session";
      "                               and make it current";
      "attach NAME                    switch to an already-open session";
      "sessions                       list the open sessions, one line each";
      "shutdown                       drain every session and stop the server";
      "quit                           report the session's accounting and";
      "                               close this connection (on stdin:";
      "                               stop the server)";
      "help                           print this grammar";
    ]

(* Session names become directory components of the durable state tree,
   so the alphabet is locked down: no separators, no dotfiles. *)
let valid_session_name name =
  name <> ""
  && name.[0] <> '.'
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' | '-' | '.' -> true
         | _ -> false)
       name

(* A parse error, raised wherever a token is rejected and turned into
   [Error] by {!parse}: the success path builds no [result] per token. *)
exception Syntax of string

let syntax fmt = Printf.ksprintf (fun msg -> raise (Syntax msg)) fmt

let session_name_token tok =
  if valid_session_name tok then tok
  else
    syntax "session name %S: want [A-Za-z0-9_.-]+ not starting with a dot" tok

let int_token name tok =
  match int_of_string tok with
  | v -> v
  | exception Failure _ -> syntax "%s: not an integer: %S" name tok

(* COLOR:BOUND[,COLOR:BOUND...] *)
let parse_delay_spec spec =
  List.map
    (fun entry ->
      match String.split_on_char ':' entry with
      | [ color; bound ] ->
          let color = int_token "delay color" color in
          (color, int_token "delay bound" bound)
      | _ -> syntax "delay: want COLOR:BOUND, got %S" entry)
    (String.split_on_char ',' spec)

let nothing_to_change =
  "reconfigure: nothing to change (want delta=, n= and/or delay=)"

let parse_reconfigure tokens =
  let delta, n, delay =
    List.fold_left
      (fun (delta, n, delay) tok ->
        match String.index_opt tok '=' with
        | None -> syntax "reconfigure: want KEY=VALUE, got %S" tok
        | Some i -> (
            let key = String.sub tok 0 i in
            let value = String.sub tok (i + 1) (String.length tok - i - 1) in
            match key with
            | "delta" -> (Some (int_token "delta" value), n, delay)
            | "n" -> (delta, Some (int_token "n" value), delay)
            | "delay" -> (delta, n, delay @ parse_delay_spec value)
            | _ ->
                syntax "reconfigure: unknown key %S (want delta, n or delay)"
                  key))
      (None, None, []) tokens
  in
  if delta = None && n = None && delay = [] then raise (Syntax nothing_to_change)
  else Reconfigure { delta; n; delay }

(* The bytes [String.trim] strips from both ends of a line. *)
let is_trim_space = function
  | ' ' | '\012' | '\n' | '\r' | '\t' -> true
  | _ -> false

let rec comment_start line i =
  if i = String.length line || line.[i] = '#' then i
  else comment_start line (i + 1)

let cut line i stop acc =
  if stop > i then String.sub line i (stop - i) :: acc else acc

(* Right to left over [lo, i], so consing yields the tokens in order;
   [stop] ends the token being scanned. *)
let rec scan line lo i stop acc =
  if i < lo then cut line lo stop acc
  else
    match line.[i] with
    | ' ' | '\t' -> scan line lo (i - 1) i (cut line (i + 1) stop acc)
    | _ -> scan line lo (i - 1) stop acc

(* The tokens of [line] in one scan: cut at the first [#], trim the
   ends as [String.trim] does, split on spaces and tabs, drop empty
   tokens. *)
let tokens line =
  let lo = ref 0 and hi = ref (comment_start line 0) in
  while !lo < !hi && is_trim_space line.[!lo] do
    incr lo
  done;
  while !hi > !lo && is_trim_space line.[!hi - 1] do
    decr hi
  done;
  scan line !lo (!hi - 1) !hi []

let command = function
  | [] -> None
  | verb :: args ->
      Some
        (match (verb, args) with
        | "submit", [ color; count ] ->
            let color = int_token "color" color in
            Submit { round = None; color; count = int_token "count" count }
        | "submit", [ round; color; count ] ->
            let round = int_token "round" round in
            let color = int_token "color" color in
            Submit { round = Some round; color; count = int_token "count" count }
        | "submit", _ -> raise (Syntax "submit: want [ROUND] COLOR COUNT")
        | "step", [] -> Step 1
        | "step", [ k ] ->
            let k = int_token "step count" k in
            if k < 1 then raise (Syntax "step: count must be at least 1")
            else Step k
        | "step", _ -> raise (Syntax "step: want at most one count")
        | "state", [] -> State
        | "state", _ -> raise (Syntax "state: takes no arguments")
        | "reconfigure", [] -> raise (Syntax nothing_to_change)
        | "reconfigure", args -> parse_reconfigure args
        | "checkpoint", [] -> Checkpoint
        | "checkpoint", _ -> raise (Syntax "checkpoint: takes no arguments")
        | "open", [ name ] -> Open (session_name_token name)
        | "open", _ -> raise (Syntax "open: want exactly one session NAME")
        | "attach", [ name ] -> Attach (session_name_token name)
        | "attach", _ -> raise (Syntax "attach: want exactly one session NAME")
        | "sessions", [] -> Sessions
        | "sessions", _ -> raise (Syntax "sessions: takes no arguments")
        | "shutdown", [] -> Shutdown
        | "shutdown", _ -> raise (Syntax "shutdown: takes no arguments")
        | "quit", [] -> Quit
        | "quit", _ -> raise (Syntax "quit: takes no arguments")
        | "help", _ -> Help
        | verb, _ -> syntax "unknown command %S (try: help)" verb)

let parse line =
  match command (tokens line) with
  | cmd -> Ok cmd
  | exception Syntax msg -> Error msg

(* The one formatter of command text: the journal's op lines, the
   shed reply and {!command_to_string} are all these bytes.  No
   partial application, so formatting a submit or a step allocates
   nothing. *)
let add_command w cmd =
  match cmd with
  | Submit { round; color; count } ->
      Wire.add_string w "submit ";
      (match round with
      | Some round ->
          Wire.add_decimal w round;
          Wire.add_char w ' '
      | None -> ());
      Wire.add_decimal w color;
      Wire.add_char w ' ';
      Wire.add_decimal w count
  | Step 1 -> Wire.add_string w "step"
  | Step k ->
      Wire.add_string w "step ";
      Wire.add_decimal w k
  | State -> Wire.add_string w "state"
  | Reconfigure { delta; n; delay } ->
      Wire.add_string w "reconfigure";
      let field key = function
        | Some v ->
            Wire.add_string w key;
            Wire.add_decimal w v
        | None -> ()
      in
      field " delta=" delta;
      field " n=" n;
      List.iteri
        (fun i (color, bound) ->
          Wire.add_string w (if i = 0 then " delay=" else ",");
          Wire.add_decimal w color;
          Wire.add_char w ':';
          Wire.add_decimal w bound)
        delay
  | Checkpoint -> Wire.add_string w "checkpoint"
  | Open name ->
      Wire.add_string w "open ";
      Wire.add_string w name
  | Attach name ->
      Wire.add_string w "attach ";
      Wire.add_string w name
  | Sessions -> Wire.add_string w "sessions"
  | Shutdown -> Wire.add_string w "shutdown"
  | Quit -> Wire.add_string w "quit"
  | Help -> Wire.add_string w "help"

let command_to_string cmd =
  let w = Wire.writer ~capacity:32 () in
  add_command w cmd;
  Wire.contents w
