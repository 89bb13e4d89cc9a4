(** The observable state of a streaming session.

    A snapshot is what a client can see of a session — round,
    parameters, cost accounting, pending population, the cache coloring
    — plus the journal op count it was taken at.  It is the [state]
    reply and the first line of every checkpoint file.  It is not the
    machine state: that is {!Rrs_core.Engine.Session.save}'s stream,
    the checkpoint's second line (doc/SERVICE.md, "Checkpoint
    format").  A restore checks a loaded machine state against the
    snapshot next to it, and a full journal replay checks itself
    against every snapshot it passes.

    {!to_line} writes the bytes the canonical {!Rrs_obs.Json} printer
    would, and [of_line (to_line s) = Ok s'] with [equal s s'] — both
    QCheck properties in [test/test_service.ml]. *)

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

val to_line : t -> string
(** The [serve_state] line: one canonical JSON object (the
    {!Rrs_obs.Json} printer's bytes), written straight into a buffer. *)

val add_line : Rrs_core.Wire.writer -> t -> unit
(** {!to_line} appended to a writer, without the newline. *)

val of_line : string -> (t, string) result
(** Parse the first line of the string: a checkpoint file's second
    line, when there is one, is not looked at. *)

val equal : t -> t -> bool
val pp : Format.formatter -> t -> unit
