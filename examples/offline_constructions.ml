(* The paper's two constructive schedule transformations, visualised.

   Lemma 4.1 (Aggregate): any feasible offline schedule for a batched
   instance becomes a schedule for the Distribute sub-instance on 3x
   resources — same executions, bounded extra reconfigurations.

   Lemma 5.3 (Punctual): any schedule becomes an all-punctual one on 7x
   resources, which is exactly the form VarBatch's tightened windows
   need.

   Run with:  dune exec examples/offline_constructions.exe *)

open Rrs_core
module Schedule_io = Rrs_trace.Schedule_io

let arr round color count = { Types.round; color; count }

let () =
  (* A small batched instance with an oversized batch: color 0 (delay 4)
     gets 6 jobs at round 0 (more than D!) plus a follow-up batch; color
     1 (delay 8) gets a pile. *)
  let instance =
    Instance.create ~name:"demo" ~delta:1 ~delay:[| 4; 8 |]
      ~arrivals:[ arr 0 0 6; arr 4 0 4; arr 0 1 8 ]
      ()
  in
  Format.printf "instance: %a@.@." Instance.pp instance;

  (* a clairvoyant 2-resource schedule from the interval planner *)
  let events = Rrs_obs.Sink.memory () in
  let result =
    Engine.run
      (Engine.config ~n:2 ~sink:events ())
      instance
      (Offline_heuristics.interval_plan instance ~m:2 ~window:4)
  in
  let t = Schedule.of_events ~n:2 ~mini_rounds:1 (Rrs_obs.Sink.events events) in
  Format.printf "input schedule T (m=2): %a, %d executions@.%s@." Cost.pp
    result.cost result.executed
    (Schedule_io.render_gantt t);

  (* --- Aggregate: T -> T' for the Distribute sub-instance, 3m --- *)
  let mapping = Distribute.transform instance in
  Format.printf "sub-instance: %a@." Instance.pp mapping.sub_instance;
  (match Aggregate.verify instance ~mapping t with
  | Error msg -> Format.printf "aggregate failed: %s@." msg
  | Ok (t', report) ->
      Format.printf
        "Aggregate T' (3m=6 resources, subcolors): executions %d (= %d), \
         reconfigurations %d vs %d@.%s@."
        report.executed result.executed
        (Schedule.reconfig_count t')
        (Schedule.reconfig_count t)
        (Schedule_io.render_gantt t'));

  (* --- Punctual: T -> all-punctual T'' on 7m --- *)
  let early, punctual, late = Punctual.census instance t in
  Format.printf "T execution census: %d early, %d punctual, %d late@." early
    punctual late;
  let t'' = Punctual.make_punctual instance t in
  let early', punctual', late' = Punctual.census instance t'' in
  Format.printf
    "Punctual T'' (7m=14 resources): census %d/%d/%d, reconfigurations %d@."
    early' punctual' late'
    (Schedule.reconfig_count t'');
  let report = Validator.check ~strict_drops:false instance t'' in
  Format.printf "T'' validates: %b; feasible for the VarBatch instance: %b@."
    report.ok
    (Validator.check ~strict_drops:false (Var_batch.transform instance) t'').ok
