(** The arrival batches fed to a streamed session for rounds it has not
    executed yet, in flat growable int storage.

    Every batch keeps its feed order.  Rounds are keyed in an
    open-addressing table (a round's slot is the round modulo the table
    size, so a feed lookahead of consecutive rounds never collides), and
    the [(color, count)] entries of all batches share one arena, chained
    per round, whose freed entries are reused.  Once the storage has
    grown to the session's lookahead, feeding and taking allocate
    nothing. *)

type t

val create : unit -> t

val add : t -> round:int -> color:Types.color -> count:int -> unit
(** Append one entry to the round's batch. *)

val mem : t -> int -> bool
(** Whether the round has a batch. *)

val take : t -> round:int -> Batch.t -> unit
(** Refill the buffer with the round's batch, in feed order, and forget
    the batch (the buffer is left empty when the round has none). *)

val jobs : t -> int
(** The job count over every stored batch. *)

val save : t -> Wire.writer -> unit
(** The batches as the round count, then one flat int array of four
    columns: the rounds (ascending), their batch lengths, then the
    colors and the counts of all batches, round by round in feed order.
    Equal contents save equal bytes, whatever order they were fed in. *)

val load : t -> Wire.reader -> from:int -> num_colors:int -> unit
(** Fill an empty table with what {!save} wrote: batches of rounds at
    [from] or later, of colors below [num_colors].
    @raise Wire.Malformed on input {!save} cannot have written (rounds
    out of order among them). *)
