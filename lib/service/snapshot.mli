(** The observable state of a streaming session.

    A snapshot is what a client can see of a session — round,
    parameters, cost accounting, pending population, the cache coloring
    — plus the journal op count it was taken at.  It is the [state]
    reply and the first line of every checkpoint file.  It is not the
    machine state: that is {!Rrs_core.Engine.Session.save}'s stream,
    the checkpoint's second line (doc/SERVICE.md, "The checkpoint
    format").  A restore verifies a loaded machine state by writing
    its snapshot line and comparing it, byte for byte, with the line
    next to it; it never parses one.

    {!to_line} writes the bytes the canonical {!Rrs_obs.Json} printer
    would.  The reader of that line and a printer for diagnostics live
    with the tests ([Rrs_torture.Torture.snapshot_of_line],
    [Torture.pp_snapshot]); the round trip is a QCheck property in
    [test/test_service.ml]. *)

type t = {
  version : int;
  ops : int;  (** journal ops applied when the snapshot was taken *)
  round : int;
  n : int;
  delta : int;
  delay : int array;
  reconfigurations : int;
  reconfig_cost : int;
  executed : int;
  dropped : int;
  pending_jobs : int;
  future_arrivals : int;
  cache : int array;
}

val version : int

val of_session : ops:int -> Rrs_core.Engine.Session.t -> t
(** [delay] is the session's own array ({!Rrs_core.Engine.Session.delay}),
    which nothing writes; [cache] is a copy. *)

val to_line : t -> string
(** The [serve_state] line: one canonical JSON object (the
    {!Rrs_obs.Json} printer's bytes), written straight into a buffer. *)

val add_line : Rrs_core.Wire.writer -> t -> unit
(** {!to_line} appended to a writer, without the newline. *)

val equal : t -> t -> bool
(** Field by field. *)
