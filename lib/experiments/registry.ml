let all =
  [
    ("EXP-A", Exp_lower_bounds.exp_a);
    ("EXP-B", Exp_lower_bounds.exp_b);
    ("EXP-1", Exp_theorems.exp_1);
    ("EXP-2", Exp_theorems.exp_2);
    ("EXP-3", Exp_theorems.exp_3);
    ("EXP-4", Exp_lemmas.exp_4);
    ("EXP-5", Exp_lemmas.exp_5);
    ("EXP-6", Exp_structure.exp_6);
    ("EXP-7", Exp_structure.exp_7);
    ("EXP-8", Exp_structure.exp_8);
    ("EXP-9", Exp_ablation.exp_9);
    ("EXP-10", Exp_ablation.exp_10);
    ("EXP-11", Exp_baselines.exp_11);
    ("EXP-12", Exp_constructive.exp_12);
    ("EXP-13", Exp_eligibility.exp_13);
  ]

let ids () = List.map fst all
let find id = List.assoc_opt id all

let summarize id (outcome : Harness.outcome) ~(before : Harness.snapshot)
    ~(after : Harness.snapshot) ~seconds =
  Rrs_obs.Run_summary.make ~id ~kind:"experiment"
    ~config:[ ("title", outcome.title) ]
    ~reconfig_cost:(after.reconfig - before.reconfig)
    ~drop_cost:(after.drop - before.drop)
    ~analysis:
      [
        ("engine_runs", float_of_int (after.runs - before.runs));
        ("engine_seconds", after.seconds -. before.seconds);
        ("findings", float_of_int (List.length outcome.findings));
      ]
    ~timings:
      [ { Rrs_obs.Run_summary.phase = "experiment"; seconds; count = 1 } ]
    ()

type success = {
  outcome : Harness.outcome;
  summary : Rrs_obs.Run_summary.t;
  metrics : Rrs_obs.Json.t;
}

(* One experiment runs against a private registry (inherited by its
   pool workers — see Harness.with_telemetry), so its cost deltas are
   exact even when other experiments run concurrently; the registry is
   folded into the process-wide one afterwards.  The pre-merge snapshot
   is kept as [metrics]: the experiment's own instruments, uncontaminated
   by concurrent siblings, so [rrs experiment --metrics] is identical
   for every [--jobs]. *)
let run_in_scope id run =
  let reg = Rrs_obs.Metrics.create () in
  let before = Harness.snapshot_of reg in
  let t0 = Unix.gettimeofday () in
  let outcome = Harness.with_telemetry reg run in
  let seconds = Unix.gettimeofday () -. t0 in
  let after = Harness.snapshot_of reg in
  let metrics = Rrs_obs.Metrics.to_json reg in
  Rrs_obs.Metrics.merge_into ~into:Harness.telemetry reg;
  { outcome; summary = summarize id outcome ~before ~after ~seconds; metrics }

let run_summarized id =
  Option.map (fun run -> run_in_scope id run) (find id)

module Supervisor = Rrs_robust.Supervisor

type run_result = (success, Supervisor.failure) result

let run_many ?(jobs = 1) ?(policy = Supervisor.default) ?(keep_going = true) ids
    =
  let tasks =
    List.filter_map (fun id -> Option.map (fun run -> (id, run)) (find id)) ids
  in
  let abort = Atomic.make false in
  let supervised (id, run) =
    if (not keep_going) && Atomic.get abort then
      (id, Error (Supervisor.skipped ~name:id))
    else
      match Supervisor.run ~policy ~name:id (fun () -> run_in_scope id run) with
      | Ok _ as ok -> (id, ok)
      | Error _ as err ->
          if not keep_going then Atomic.set abort true;
          (id, err)
  in
  (* map_results, not map: a crash that escapes the supervisor (a
     "pool.worker" injection fires outside the supervised thunk) still
     must not cost the sibling experiments their results *)
  Rrs_parallel.Pool.map_results ~domains:jobs supervised tasks
  |> List.map2
       (fun (id, _) -> function
         | Ok pair -> pair
         | Error (exn, backtrace) ->
             (* this failure escaped the supervisor (e.g. a pool.worker
                injection fired outside the supervised thunk), so the
                crash black-box the supervisor would have taken is
                taken here, at the sweep's containment point *)
             (match Rrs_obs.Flight_recorder.crash_scope () with
             | Some (recorder, dir) -> (
                 try
                   ignore
                     (Rrs_obs.Flight_recorder.crash_dump recorder ~dir
                        ~name:id ~reason:(Printexc.to_string exn))
                 with _ -> ())
             | None -> ());
             ( id,
               Error
                 {
                   Supervisor.name = id;
                   exn;
                   backtrace;
                   attempts = 1;
                   phase = "exception";
                   classified = policy.Supervisor.classify exn;
                 } ))
       tasks

let failures results =
  List.filter_map
    (fun (id, r) ->
      match r with Ok _ -> None | Error f -> Some (id, f))
    results
