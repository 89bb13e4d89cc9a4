(** Minimal RFC-4180-style CSV reading and writing (comma separator,
    double-quote escaping, LF or CRLF records).  Built from scratch: the
    sealed environment ships no CSV library, and the trace/instance
    interchange formats below need round-trippable quoting. *)

val escape_field : string -> string
(** Quote a field iff it contains a comma, quote or newline. *)

val render : string list list -> string
(** All records, LF-terminated each. *)

val parse : string -> (string list list, string) result
(** Parse a CSV document into records of fields.  Empty lines are
    skipped.  Returns [Error] with a position message on unbalanced
    quotes. *)

val parse_exn : string -> string list list
(** @raise Invalid_argument on malformed input. *)
