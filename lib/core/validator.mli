(** Independent schedule checker.

    Replays a recorded {!Schedule.t} against an {!Instance.t}, maintaining
    its own job bookkeeping, and verifies every model constraint:

    - resources only execute the color they are configured to;
    - at most one execution per resource per mini-round;
    - executions consume jobs that have arrived and not yet expired
      (executing in the round of the deadline is illegal — the drop phase
      precedes the execution phase);
    - drops match exactly the jobs that expire (strict mode);
    - recomputed cost matches the engine's reported cost.

    Strict mode is for schedules produced directly on the instance;
    reduction pipelines (VarBatch delays arrivals) validate in lenient
    mode, which checks execution feasibility and conservation
    (executed + dropped = total jobs) but not drop timing. *)

type violation = { round : Types.round; message : string }

type report = {
  ok : bool;
  violations : violation list;
  recomputed_cost : Cost.t;
  executed : int;
  dropped : int;
}

val check : ?strict_drops:bool -> Instance.t -> Schedule.t -> report
(** [strict_drops] defaults to [true]. *)

val check_result :
  ?strict_drops:bool -> Instance.t -> Schedule.t -> Engine.result -> report
(** Validates the schedule a run recorded ({!Schedule.of_events}) and
    additionally compares the recomputed cost with [result.cost]. *)

val pp_report : Format.formatter -> report -> unit
