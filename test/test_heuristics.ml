(* Tests for the clairvoyant offline heuristics. *)

open Rrs_core
module Rng = Rrs_prng.Rng
module Families = Rrs_workload.Families

let arr round color count = { Types.round; color; count }

let test_interval_plan_tracks_hot_set () =
  (* two colors hot in disjoint windows: the planner with window = 4 must
     serve both with one reconfiguration each (delta = 1, m = 1) *)
  let i =
    Instance.create ~delta:1 ~delay:[| 4; 4 |]
      ~arrivals:[ arr 0 0 3; arr 4 1 3 ]
      ()
  in
  let cost = Offline_heuristics.interval_cost i ~m:1 ~window:4 in
  Alcotest.(check int) "two reconfigs, no drops" 2 cost;
  (* a static single color drops one side: cost 1 + 3 *)
  Alcotest.(check int) "static is worse" 4
    (Offline_bounds.static_upper_bound i ~m:1)

let test_upper_bound_improves_on_static () =
  (* on the phase-shifting datacenter family, tracking the hot set beats
     any static choice *)
  let i = (Option.get (Families.find "datacenter")).build ~seed:1 in
  let interval = Offline_heuristics.upper_bound i ~m:4 in
  let static = Offline_bounds.static_upper_bound i ~m:4 in
  Alcotest.(check bool)
    (Printf.sprintf "interval %d <= static %d" interval static)
    true (interval <= static)

let test_upper_bound_is_above_opt () =
  let rng = Rng.create ~seed:77 in
  for _ = 1 to 10 do
    let delay = [| 2; 4 |] in
    let arrivals =
      List.concat
        (List.init 3 (fun b ->
             [ arr (b * 4) 0 (Rng.int rng 3); arr (b * 4) 1 (Rng.int rng 4) ]))
    in
    let i = Instance.create ~delta:2 ~delay ~arrivals () in
    match Offline_opt.solve i ~m:1 with
    | None -> ()
    | Some opt ->
        let ub = Offline_heuristics.upper_bound i ~m:1 in
        if ub < opt then
          Alcotest.failf "heuristic %d below exact OPT %d (infeasible!)" ub opt
  done

let test_plan_schedule_validates () =
  let i = (Option.get (Families.find "uniform")).build ~seed:2 in
  let events = Rrs_obs.Sink.memory () in
  let r =
    Engine.run
      (Engine.config ~n:2 ~sink:events ())
      i
      (Offline_heuristics.interval_plan i ~m:2 ~window:8)
  in
  let schedule =
    Schedule.of_events ~n:2 ~mini_rounds:1 (Rrs_obs.Sink.events events)
  in
  let report = Validator.check_result i schedule r in
  if not report.ok then
    Alcotest.failf "interval plan produced an invalid schedule: %a"
      Validator.pp_report report

let test_window_validation () =
  let i = Instance.create ~delta:1 ~delay:[| 2 |] ~arrivals:[] () in
  let expect_invalid name f =
    match f () with
    | exception Invalid_argument _ -> ()
    | () -> Alcotest.failf "%s accepted" name
  in
  expect_invalid "window 0" (fun () ->
      ignore
        (Offline_heuristics.interval_plan i ~m:1 ~window:0 : Policy.factory));
  expect_invalid "m 0" (fun () ->
      ignore
        (Offline_heuristics.interval_plan i ~m:0 ~window:4 : Policy.factory))

let () =
  Alcotest.run "heuristics"
    [
      ( "interval planner",
        [
          Alcotest.test_case "tracks hot set" `Quick
            test_interval_plan_tracks_hot_set;
          Alcotest.test_case "improves on static" `Quick
            test_upper_bound_improves_on_static;
          Alcotest.test_case "above exact OPT" `Quick
            test_upper_bound_is_above_opt;
          Alcotest.test_case "schedule validates" `Quick
            test_plan_schedule_validates;
          Alcotest.test_case "validation" `Quick test_window_validation;
        ] );
    ]
