(** The text encoding of durable machine state: a growable byte
    {!writer}, a flat stream of ints in a printable varint code, and the
    word-at-a-time {!Hash} that checks what was written.

    An int is zigzag-mapped to a non-negative code (0, -1, 1, -2, ...
    become 0, 1, 2, 3, ...) and written as base-32 digits, least
    significant first, one character per digit: a digit that ends the
    int is ['0' + d] (['0'..'O']), a digit that more digits follow is
    ['P' + d] (['P'..'o']).  Ints below 16 in magnitude take one
    character, none takes more than 13, and no character of the code
    is a blank or a newline, so a whole stream fits inside one text
    line.  Encoding and decoding use shifts only — no division and no
    allocation per int. *)

exception Malformed of string
(** A reader met bytes that are not the stream it was asked for. *)

(** {2 Writing} *)

type writer

val writer : ?capacity:int -> unit -> writer
(** An empty writer; it grows as needed and {!clear} keeps its
    capacity, so a long-lived writer stops allocating. *)

val clear : writer -> unit
val length : writer -> int
val contents : writer -> string
val write_fd : Unix.file_descr -> writer -> unit
(** Every written byte, from the writer's buffer straight to the file
    descriptor, without an intermediate string; raises
    [Unix.Unix_error] when the write fails. *)

val equal_bytes : writer -> Bytes.t -> pos:int -> len:int -> bool
(** Whether the written bytes are [b.[pos .. pos+len-1]], compared in
    place.
    @raise Invalid_argument if the range is not inside [b]. *)

val add_char : writer -> char -> unit
val add_string : writer -> string -> unit

val add_decimal : writer -> int -> unit
(** The bytes of [string_of_int], without building the string. *)

val add_int : writer -> int -> unit
(** One int of the varint code. *)

val add_ints : writer -> int array -> unit
(** The length, then every element. *)

val add_ints_prefix : writer -> int array -> int -> unit
(** [add_ints_prefix w a n] writes what [add_ints w (Array.sub a 0 n)]
    would. *)

val scratch : writer -> int -> int array
(** An int array of at least [n] elements, owned by the writer and
    handed out again by the next call: the staging area for a state
    section a caller flattens and then writes with {!add_ints_prefix}.
    A long-lived writer stops allocating it. *)

(** {2 Reading} *)

type reader

val reader : string -> pos:int -> stop:int -> reader
(** Read the code held by [s.[pos .. stop-1]].
    @raise Invalid_argument if the range is not inside [s]. *)

val int : reader -> int
(** @raise Malformed on a byte outside the code, an int cut short by
    the end of the range, more than 13 digits, or digits {!add_int}
    does not write (a final digit 0 after others, a 13th digit over
    7): every int has exactly one encoding, so what a reader accepts
    is what a writer of the ints read would write. *)

val count : reader -> int
(** The length {!add_ints} writes first, no larger than the characters
    left (every element takes at least one), so corrupt input cannot
    ask for a huge allocation. *)

val read_into : reader -> int array -> pos:int -> len:int -> unit
(** [len] ints into [a.(pos) .. a.(pos + len - 1)]: the elements
    {!add_ints} wrote after its {!count}, decoded straight into the
    caller's array.
    @raise Invalid_argument if the range is not inside [a]. *)

val at_end : reader -> bool

(** {2 Hashing} *)

(** A streaming 64-bit hash over a byte sequence, fed in pieces of any
    size: each 8-byte little-endian word is XORed into the state, which
    is then multiplied by an odd constant; a final partial word is
    zero-padded, and the digest also mixes in the byte count.  Every
    step is a bijection of the state, so two sequences of equal length
    that differ inside one word always hash differently, and the length
    separates a sequence from its truncations.  It checks for
    accidental damage (a torn or flipped byte), not for tampering. *)
module Hash : sig
  type t

  val create : unit -> t
  val copy : t -> t

  val feed : t -> string -> pos:int -> len:int -> unit
  val feed_bytes : t -> Bytes.t -> pos:int -> len:int -> unit
  val feed_writer : t -> writer -> pos:int -> len:int -> unit

  val length : t -> int
  (** Bytes fed so far. *)

  val digest : t -> string
  (** 16 lowercase hex digits; [t] is not changed. *)

  val assign : t -> t -> unit
  (** [assign dst src] makes [dst] a copy of [src] without allocating. *)

  (** {3 Chains}

      A chain hashes a sequence of records, each seeded with the digest
      of the one before: a record's value depends on every record up to
      it, and a reader can start at any link knowing only the 16-digit
      value there. *)

  val link : t -> unit
  (** End a record: the state becomes the record's digest, what
      {!digest} printed just before, and the count restarts, so the
      next bytes are hashed as by a hash seeded with that value. *)

  val chain : t -> string
  (** The 16 hex digits of the value the last {!link} left. *)

  val of_chain : string -> t option
  (** The hash {!chain} printed, ready for the next record; [None]
      unless the string is 16 lowercase hex digits. *)

  val add_check : writer -> t -> digits:int -> unit
  (** The first [digits] (at most 8) hex digits of {!chain}, appended
      to the writer without allocating. *)

  val check_matches : t -> string -> pos:int -> digits:int -> bool
  (** Whether [s] holds those digits at [pos]. *)
end
