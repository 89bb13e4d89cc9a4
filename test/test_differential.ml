(* The decision-identity harness for the incremental ranking core: every
   policy of the ΔLRU/EDF family and Par-EDF must produce the same
   result as its list-sort reference in Rrs_oracle on the same
   instance, down to the final cache and the full recorded schedule.
   Instances cover the workload families, the Appendix A/B adversarial
   constructions, and QCheck-random instances (including
   non-power-of-two delays). *)

open Rrs_core
module Families = Rrs_workload.Families
module Adv = Rrs_workload.Adversarial

(* (name, production, reference) *)
let policies : (string * Policy.factory * Policy.factory) list =
  [
    ("dlru", Delta_lru.policy, Rrs_oracle.dlru);
    ("edf", Edf_policy.policy, Rrs_oracle.edf);
    ("seq-edf", Edf_policy.seq_policy, Rrs_oracle.seq_edf);
    ("dlru-edf", Lru_edf.policy, Rrs_oracle.dlru_edf);
  ]

(* A run's result paired with the schedule recorded off its engine
   events.  [engine_sink] wraps the recording sink (a watchdog or flight
   recorder in front of it); [policy] is instantiated with the sink it
   may emit to. *)
let recorded ?(mini_rounds = 1) ?(engine_sink = Fun.id) ?heartbeat ~n instance
    policy =
  let events = Rrs_obs.Sink.memory () in
  let r =
    Engine.run_policy
      (Engine.config ~n ~mini_rounds ~sink:(engine_sink events) ?heartbeat ())
      instance policy
  in
  (r, Schedule.of_events ~n ~mini_rounds (Rrs_obs.Sink.events events))

let run_both ?(n = 8) instance production reference =
  let run (factory : Policy.factory) =
    recorded ~n instance (factory instance ~n)
  in
  (run production, run reference)

let par_identical instance =
  Par_edf.run instance ~m:2 = Rrs_oracle.par_edf instance ~m:2

(* Structural equality covers every field of the result (cost,
   counters, the per-color arrays, final_cache) and the recorded
   schedule. *)
let check_identical label instance =
  List.iter
    (fun (pname, production, reference) ->
      let incr, oracle = run_both instance production reference in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s identical" pname label)
        true (incr = oracle))
    policies;
  Alcotest.(check bool)
    (Printf.sprintf "par-edf/%s identical" label)
    true (par_identical instance)

let test_families () =
  List.iter
    (fun id ->
      let f = Option.get (Families.find id) in
      List.iter
        (fun seed ->
          check_identical (Printf.sprintf "%s-s%d" id seed) (f.build ~seed))
        [ 1; 2 ])
    [ "uniform"; "zipf"; "bursty"; "router"; "flash-crowd"; "oversized";
      "unbatched" ]

let test_adversarial () =
  check_identical "appendix-a"
    (Adv.dlru_instance { n = 8; delta = 2; j = 5; k = 7 });
  check_identical "appendix-b"
    (Adv.edf_instance { n = 2; delta = 3; j = 2; k = 6 })

let test_scaled () =
  (* the scaling knob the bench sweeps, at a testable size *)
  let f = Option.get (Families.find "uniform") in
  let scale = Option.get f.scale in
  check_identical "uniform-c64" (scale ~num_colors:64 ~seed:3)

(* Random instances: arbitrary rounds, arbitrary (not power-of-two)
   delay bounds, duplicate arrivals — everything Instance.create
   accepts. *)
let instance_gen =
  let open QCheck.Gen in
  let* num_colors = int_range 1 6 in
  let* delta = int_range 1 3 in
  let* delay = array_size (return num_colors) (int_range 1 12) in
  let* arrivals =
    list_size (int_range 0 40)
      (let* round = int_range 0 30 in
       let* color = int_range 0 (num_colors - 1) in
       let* count = int_range 1 5 in
       return { Types.round; color; count })
  in
  return (Instance.create ~delta ~delay ~arrivals ())

let arbitrary_instance =
  QCheck.make instance_gen ~print:(fun i ->
      Format.asprintf "%a" Instance.pp_full i)

let prop_random_instances =
  QCheck.Test.make ~count:60 ~name:"identical decisions on random instances"
    arbitrary_instance (fun instance ->
      List.for_all
        (fun (_, production, reference) ->
          let incr, oracle = run_both instance production reference in
          incr = oracle)
        policies
      && par_identical instance)

(* Double-speed engines exercise two reconfigurations per round against
   one begin_round epoch update — a different event interleaving. *)
let test_double_speed () =
  let f = Option.get (Families.find "bursty") in
  let instance = f.build ~seed:4 in
  let run (factory : Policy.factory) =
    recorded ~mini_rounds:2 ~n:8 instance (factory instance ~n:8)
  in
  Alcotest.(check bool)
    "ds-seq-edf identical" true
    (run Edf_policy.seq_policy = run Rrs_oracle.seq_edf)

(* The watchdog's non-perturbation guarantee: attaching a Record-mode
   watchdog to a fully instrumented run must leave Engine.result
   structurally identical to the uninstrumented run — same cost, same
   counters, same recorded schedule.  Both sides record the schedule
   off the engine's sink; on the plain side the policy keeps
   [Sink.null], so the comparison still covers policy instrumentation.
   Doubles as an empirical check that the live Lemma 3.3 / 3.4 prefix
   bounds hold on every family and both appendix constructions. *)
module Watchdog = Rrs_robust.Watchdog
module Sink = Rrs_obs.Sink

(* the bool says whether the policy lives inside the ΔLRU budgets —
   the EDF baselines emit the same eligibility events but reconfigure
   freely, so Lemma 3.3/3.4 do not bound them *)
let sinked_policies :
    (string * bool * (sink:Sink.t -> Instance.t -> n:int -> Policy.t)) list =
  [
    ( "dlru",
      true,
      fun ~sink instance ~n -> (Delta_lru.make ~sink instance ~n).policy );
    ( "edf",
      false,
      fun ~sink instance ~n -> (Edf_policy.make ~sink instance ~n).policy );
    ( "seq-edf",
      false,
      fun ~sink instance ~n -> (Edf_policy.make_seq ~sink instance ~n).policy );
    ( "dlru-edf",
      true,
      fun ~sink instance ~n -> (Lru_edf.make ~sink instance ~n).policy );
  ]

(* [rate_limited] says the instance lives in the layer the lemmas are
   stated for; the batched/unbatched families feed reduction pipelines
   and running a policy on them directly is outside the bounds *)
let check_watchdog_inert ?(rate_limited = true) label instance =
  List.iter
    (fun (pname, budgeted, make) ->
      let lemma_bounds = budgeted && rate_limited in
      let n = 8 in
      let plain = recorded ~n instance (make ~sink:Sink.null instance ~n) in
      let wd =
        Watchdog.create ~policy:Watchdog.Record ~lemma_bounds
          ~delta:instance.Instance.delta ()
      in
      let watched =
        recorded ~n ~engine_sink:(Watchdog.attach wd) instance
          (make ~sink:(Watchdog.attach wd Sink.null) instance ~n)
      in
      Watchdog.finish wd;
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s watchdog-inert" pname label)
        true (plain = watched);
      (match Watchdog.violations wd with
      | [] -> ()
      | v :: _ ->
          Alcotest.failf "%s/%s: watchdog flagged %a after %d events" pname
            label Watchdog.pp_violation v
            (Watchdog.events_seen wd));
      if Watchdog.events_seen wd = 0 then
        Alcotest.failf "%s/%s: instrumented run emitted no events" pname label)
    sinked_policies

let test_watchdog_record_inert () =
  List.iter
    (fun id ->
      let f = Option.get (Families.find id) in
      let rate_limited = f.layer = Families.Rate_limited in
      List.iter
        (fun seed ->
          check_watchdog_inert ~rate_limited
            (Printf.sprintf "%s-s%d" id seed)
            (f.build ~seed))
        [ 1; 2 ])
    [ "uniform"; "zipf"; "bursty"; "router"; "flash-crowd"; "oversized";
      "unbatched" ];
  check_watchdog_inert "appendix-a"
    (Adv.dlru_instance { n = 8; delta = 2; j = 5; k = 7 });
  check_watchdog_inert "appendix-b"
    (Adv.edf_instance { n = 2; delta = 3; j = 2; k = 6 })

(* The live-telemetry plane's non-perturbation guarantee: a run with a
   flight recorder attached as its sink and a heartbeat observing every
   round must leave Engine.result structurally identical — including
   the recorded schedule — to the bare Sink.null run.  Both sides must
   actually have telemetered: a recorder that saw no events or a
   heartbeat that observed no rounds would make the equality vacuous. *)
module Flight_recorder = Rrs_obs.Flight_recorder
module Heartbeat = Rrs_obs.Heartbeat

let check_telemetry_inert label instance =
  List.iter
    (fun (pname, _, make) ->
      let n = 8 in
      let plain = recorded ~n instance (make ~sink:Sink.null instance ~n) in
      let recorder = Flight_recorder.create ~capacity:128 () in
      let hb = Heartbeat.create ~every_rounds:32 () in
      let telemetered =
        recorded ~n
          ~engine_sink:(Flight_recorder.attach recorder)
          ~heartbeat:hb instance
          (make ~sink:(Flight_recorder.sink recorder) instance ~n)
      in
      Alcotest.(check bool)
        (Printf.sprintf "%s/%s telemetry-inert" pname label)
        true
        (plain = telemetered);
      if Flight_recorder.events_recorded recorder = 0 then
        Alcotest.failf "%s/%s: recorder saw no events" pname label;
      if Heartbeat.rounds_observed hb = 0 then
        Alcotest.failf "%s/%s: heartbeat observed no rounds" pname label)
    sinked_policies

let test_telemetry_inert () =
  List.iter
    (fun id ->
      let f = Option.get (Families.find id) in
      List.iter
        (fun seed ->
          check_telemetry_inert
            (Printf.sprintf "%s-s%d" id seed)
            (f.build ~seed))
        [ 1; 2 ])
    [ "uniform"; "bursty"; "router" ];
  check_telemetry_inert "appendix-a"
    (Adv.dlru_instance { n = 8; delta = 2; j = 5; k = 7 })

let () =
  Alcotest.run "differential"
    [
      ( "incremental vs rebuild",
        [
          Alcotest.test_case "workload families" `Quick test_families;
          Alcotest.test_case "appendix A/B" `Quick test_adversarial;
          Alcotest.test_case "scaled universe" `Quick test_scaled;
          Alcotest.test_case "double speed" `Quick test_double_speed;
          QCheck_alcotest.to_alcotest prop_random_instances;
        ] );
      ( "watchdog non-perturbation",
        [
          Alcotest.test_case "record mode is inert" `Quick
            test_watchdog_record_inert;
          Alcotest.test_case "recorder + heartbeat are inert" `Quick
            test_telemetry_inert;
        ] );
    ]
