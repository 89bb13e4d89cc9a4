(** Pending-job bookkeeping for all colors of one simulation.

    Jobs of one color all share one delay bound, so arrival order equals
    deadline order and a per-color FIFO of [(deadline, count)] buckets is
    simultaneously FIFO and earliest-deadline-first.  Each color's FIFO
    is a flat int ring that doubles when full, so adding, executing and
    expiring jobs allocate nothing amortized.  A global heap of due
    dates makes the engine's drop phase event-driven: only colors with
    a bucket expiring this round are touched. *)

type t

val create : num_colors:int -> t
(** @raise Invalid_argument if [num_colors] exceeds the packed color
    field ({!Packed.max_colors}). *)

val num_colors : t -> int

val add : t -> Types.color -> deadline:int -> count:int -> unit
(** Enqueue [count] jobs.  Deadlines of one color must be enqueued in
    nondecreasing order (the engine guarantees this: deadline = arrival
    round + fixed per-color delay).
    @raise Invalid_argument on a negative count or on a deadline earlier
    than the color's current latest bucket. *)

val total : t -> Types.color -> int
(** Pending job count of a color; O(1). *)

val grand_total : t -> int
(** Pending jobs over all colors; O(1). *)

val is_idle : t -> Types.color -> bool
(** A color is idle iff it has no pending jobs (paper, Section 3.1). *)

val earliest_deadline : t -> Types.color -> int option

val front_deadline : t -> Types.color -> int
(** {!earliest_deadline} without the option box: the color's earliest
    pending deadline, or [-1] when it is idle (deadlines are
    non-negative).  The zero-alloc accessor the ranking hot path uses. *)

val execute : t -> Types.color -> bool
(** Consume the earliest-deadline pending job of the color; [false] if
    the color is idle.  Zero-alloc — the engine's per-resource execution
    call. *)

val execute_one : t -> Types.color -> int option
(** {!execute}, additionally returning the consumed job's deadline
    (allocates the option). *)

val expire : t -> now:int -> Batch.t -> unit
(** Drop every pending job whose deadline is [<= now], and refill the
    buffer with the drop count of every affected color, in ascending
    color order.  Amortised O(log n) per expired bucket; allocates
    nothing once the buffer has grown. *)

val nonidle_count : t -> int
(** Number of colors with at least one pending job; O(1). *)

val iter_nonidle : t -> (Types.color -> int -> unit) -> unit
(** [iter_nonidle t f] calls [f color pending_count] for each nonidle
    color in ascending color order; O(num_colors). *)

val on_front_change : t -> (Types.color -> unit) -> unit
(** Make [f] the one subscriber called whenever a color's {e front}
    changes: its earliest pending deadline moved or its idleness
    flipped (first bucket created, front bucket consumed or expired).
    Appends behind an existing front do {e not} fire — they are
    invisible to deadline-keyed consumers.  This is the delta feed the
    incremental ranking ({!Ranking.Index}) and Par-EDF are driven by.
    A later call replaces the subscriber, so a policy re-instantiated
    over the same store takes the feed over from the one it replaces.
    [f] must not mutate the [Pending.t] it observes. *)

val save : t -> Wire.writer -> unit
(** The pending buckets of every color, front first. *)

val load : t -> Wire.reader -> unit
(** Fill a fresh, empty store with what {!save} wrote, decoded straight
    into its rings, and notify the front subscriber once for every color
    that gets buckets, as {!add} does for a color's first one.
    @raise Wire.Malformed or [Invalid_argument] on input {!save} cannot
    have written (deadlines out of order among them); the store is then
    left part-filled, to be discarded. *)
