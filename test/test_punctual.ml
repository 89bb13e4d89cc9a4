(* Tests for the punctual transformation (paper Section 5.2). *)

open Rrs_core
module Synthetic = Rrs_workload.Synthetic
module Rng = Rrs_prng.Rng

let arr round color count = { Types.round; color; count }

let record ~n instance factory =
  let events = Rrs_obs.Sink.memory () in
  let r = Engine.run (Engine.config ~n ~sink:events ()) instance factory in
  (r, Schedule.of_events ~n ~mini_rounds:1 (Rrs_obs.Sink.events events))

let test_classify () =
  (* delay 8, half-block 4: arrival 5 sits in half-block 1 (rounds 4-7) *)
  Alcotest.(check bool) "early" true
    (Punctual.classify ~delay:8 ~arrival:5 ~execution:6 = Punctual.Early);
  Alcotest.(check bool) "punctual" true
    (Punctual.classify ~delay:8 ~arrival:5 ~execution:9 = Punctual.Punctual);
  Alcotest.(check bool) "late" true
    (Punctual.classify ~delay:8 ~arrival:5 ~execution:12 = Punctual.Late);
  Alcotest.(check bool) "delay 1" true
    (Punctual.classify ~delay:1 ~arrival:3 ~execution:3 = Punctual.Punctual);
  (match Punctual.classify ~delay:8 ~arrival:5 ~execution:13 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "infeasible execution accepted");
  match Punctual.classify ~delay:6 ~arrival:0 ~execution:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-pow2 delay accepted"

let test_census () =
  (* one color, delay 4 (half-block 2), jobs at round 0; a static
     schedule executes at rounds 0,1 (early: arrival hb 0 = rounds 0-1)
     and 2,3 (punctual) *)
  let i = Instance.create ~delta:1 ~delay:[| 4 |] ~arrivals:[ arr 0 0 4 ] () in
  let _, t = record ~n:1 i (Static_policy.static [ 0 ]) in
  let early, punctual, late = Punctual.census i t in
  Alcotest.(check (list int)) "census" [ 2; 2; 0 ] [ early; punctual; late ];
  Alcotest.(check bool) "not punctual" false (Punctual.is_punctual i t)

let check_transform name instance t =
  let executed_in = Schedule.execute_count t in
  match Punctual.make_punctual instance t with
  | exception Invalid_argument msg -> Alcotest.failf "%s: %s" name msg
  | t' ->
      Alcotest.(check int) (name ^ ": 7x resources") (7 * t.Schedule.n)
        t'.Schedule.n;
      (* feasible for the original instance *)
      let report = Validator.check ~strict_drops:false instance t' in
      if not report.Validator.ok then
        Alcotest.failf "%s: invalid against original: %a" name
          Validator.pp_report report;
      Alcotest.(check int) (name ^ ": executions preserved") executed_in
        report.executed;
      (* all executions punctual *)
      Alcotest.(check bool) (name ^ ": punctual") true
        (Punctual.is_punctual instance t');
      (* a punctual schedule is feasible for the VarBatch instance *)
      let transformed = Var_batch.transform instance in
      let report' = Validator.check ~strict_drops:false transformed t' in
      if not report'.Validator.ok then
        Alcotest.failf "%s: invalid against VarBatch instance: %a" name
          Validator.pp_report report';
      t'

let test_simple_transform () =
  let i = Instance.create ~delta:1 ~delay:[| 4 |] ~arrivals:[ arr 0 0 4 ] () in
  let _, t = record ~n:1 i (Static_policy.static [ 0 ]) in
  ignore (check_transform "simple" i t)

let test_special_stream_shifts () =
  (* a resource statically configured to one color across many blocks:
     all its early executions are special and shift by half a block,
     costing one reconfiguration on the special resource *)
  let i =
    Instance.create ~delta:1 ~delay:[| 8 |]
      ~arrivals:(List.init 4 (fun b -> arr (8 * b) 0 4))
      ()
  in
  let _, t = record ~n:1 i (Static_policy.static [ 0 ]) in
  let t' = check_transform "special stream" i t in
  (* specials keep a single stream: few reconfigurations *)
  Alcotest.(check bool) "few reconfigs" true
    (Schedule.reconfig_count t' <= 3)

let test_multi_resource_multi_color () =
  let rng = Rng.create ~seed:31 in
  for _ = 1 to 4 do
    let instance =
      Synthetic.rate_limited (Rng.split rng)
        {
          Synthetic.default_batched with
          num_colors = 4;
          min_exp = 1;
          max_exp = 3;
          horizon = 64;
          load = 0.9;
        }
    in
    List.iter
      (fun (name, policy) ->
        let _, t = record ~n:2 instance policy in
        ignore (check_transform name instance t))
      [
        ("static", Static_policy.static [ 0; 1 ]);
        ("interval", Offline_heuristics.interval_plan instance ~m:2 ~window:8);
      ]
  done

let test_unbatched_input () =
  (* the transformation works for arbitrary arrival rounds (that is its
     whole point: Lemma 5.3 feeds VarBatch) *)
  let i =
    Instance.create ~delta:1 ~delay:[| 8; 4 |]
      ~arrivals:[ arr 1 0 2; arr 3 1 2; arr 9 0 1; arr 10 1 3 ]
      ()
  in
  let _, t = record ~n:2 i (Static_policy.static [ 0; 1 ]) in
  ignore (check_transform "unbatched" i t)

let test_delay_one_passthrough () =
  let i =
    Instance.create ~delta:1 ~delay:[| 1 |]
      ~arrivals:[ arr 0 0 1; arr 2 0 1 ]
      ()
  in
  let _, t = record ~n:1 i (Static_policy.static [ 0 ]) in
  let t' = check_transform "delay-1" i t in
  Alcotest.(check int) "both executed" 2 (Schedule.execute_count t')

let test_reconfig_overhead_bounded () =
  let rng = Rng.create ~seed:71 in
  let instance =
    Synthetic.rate_limited (Rng.split rng)
      { Synthetic.default_batched with num_colors = 6; horizon = 256 }
  in
  let m = 2 in
  let _, t =
    record ~n:m instance (Offline_heuristics.interval_plan instance ~m ~window:16)
  in
  let t' = Punctual.make_punctual instance t in
  let in_cost = max 1 (Schedule.reconfig_count t) in
  let out_cost = Schedule.reconfig_count t' in
  Alcotest.(check bool)
    (Printf.sprintf "overhead bounded: %d vs %d" out_cost in_cost)
    true
    (out_cost <= (12 * in_cost) + (7 * m))

let test_online_schedules_as_input () =
  (* churny online schedules stress the special/nonspecial split *)
  let rng = Rng.create ~seed:83 in
  for _ = 1 to 4 do
    let instance =
      Synthetic.rate_limited (Rng.split rng)
        { Synthetic.default_batched with num_colors = 5; horizon = 128 }
    in
    List.iter
      (fun (name, policy) ->
        let _, t = record ~n:4 instance policy in
        ignore (check_transform name instance t))
      [
        ("lru-edf", Lru_edf.policy);
        ("edf", Edf_policy.policy);
        ("greedy", Naive_policies.greedy_backlog);
      ]
  done

let test_rejects_double_speed () =
  let i = Instance.create ~delta:1 ~delay:[| 4 |] ~arrivals:[ arr 0 0 1 ] () in
  let _, t = record ~n:1 i (Static_policy.static [ 0 ]) in
  match Punctual.make_punctual i { t with Schedule.mini_rounds = 2 } with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double-speed accepted"

let () =
  Alcotest.run "punctual"
    [
      ( "classification",
        [
          Alcotest.test_case "classify" `Quick test_classify;
          Alcotest.test_case "census" `Quick test_census;
        ] );
      ( "transformation",
        [
          Alcotest.test_case "simple" `Quick test_simple_transform;
          Alcotest.test_case "special stream" `Quick test_special_stream_shifts;
          Alcotest.test_case "multi resource/color" `Slow
            test_multi_resource_multi_color;
          Alcotest.test_case "unbatched input" `Quick test_unbatched_input;
          Alcotest.test_case "delay-1 passthrough" `Quick
            test_delay_one_passthrough;
          Alcotest.test_case "overhead bounded" `Slow
            test_reconfig_overhead_bounded;
          Alcotest.test_case "online schedules as input" `Slow
            test_online_schedules_as_input;
          Alcotest.test_case "rejects double speed" `Quick
            test_rejects_double_speed;
        ] );
    ]
