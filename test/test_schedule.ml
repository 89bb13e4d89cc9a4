(* Tests for the Schedule record and Cost arithmetic. *)

open Rrs_core

let arr round color count = { Types.round; color; count }

let sample_schedule () =
  let instance =
    Instance.create ~delta:2 ~delay:[| 4; 4 |]
      ~arrivals:[ arr 0 0 6; arr 0 1 2 ]
      ()
  in
  let events = Rrs_obs.Sink.memory () in
  let r =
    Engine.run
      (Engine.config ~n:2 ~sink:events ())
      instance
      (Static_policy.static [ 0; 1 ])
  in
  (instance, r, Schedule.of_events ~n:2 ~mini_rounds:1 (Rrs_obs.Sink.events events))

let test_counts () =
  let _, r, sched = sample_schedule () in
  Alcotest.(check int) "reconfigs" r.reconfigurations
    (Schedule.reconfig_count sched);
  Alcotest.(check int) "executes" r.executed (Schedule.execute_count sched);
  Alcotest.(check int) "drops" r.dropped (Schedule.drop_count sched)

let test_cost_recomputation () =
  let instance, r, sched = sample_schedule () in
  Alcotest.(check bool) "cost equal" true
    (Cost.equal (Schedule.cost ~delta:instance.delta sched) r.cost)

let test_final_cache () =
  let _, r, sched = sample_schedule () in
  Alcotest.(check (list int)) "final cache" (Array.to_list r.final_cache)
    (Array.to_list (Schedule.final_cache sched))

let test_events_of_round () =
  let _, _, sched = sample_schedule () in
  let round0 = Schedule.events_of_round sched 0 in
  (* round 0: two reconfigurations then two executions *)
  Alcotest.(check int) "round 0 events" 4 (List.length round0);
  (match round0 with
  | Schedule.Reconfigure _ :: Schedule.Reconfigure _ :: Schedule.Execute _ :: _
    ->
      ()
  | _ -> Alcotest.fail "unexpected round-0 event order");
  Alcotest.(check (list int)) "no events beyond the horizon" []
    (List.map (fun _ -> 0) (Schedule.events_of_round sched 99))

let test_pp_does_not_raise () =
  let _, _, sched = sample_schedule () in
  let s = Format.asprintf "%a" Schedule.pp sched in
  Alcotest.(check bool) "nonempty" true (String.length s > 0)

(* Cost *)

let test_cost_arithmetic () =
  let c = Cost.make ~reconfig:6 ~drop:4 in
  Alcotest.(check int) "total" 10 (Cost.total c);
  let c2 = Cost.add c (Cost.make ~reconfig:1 ~drop:2) in
  Alcotest.(check int) "add" 13 (Cost.total c2);
  Alcotest.(check int) "add_reconfig" 12 (Cost.total (Cost.add_reconfig c 2));
  Alcotest.(check int) "add_drop" 11 (Cost.total (Cost.add_drop c 1));
  Alcotest.(check bool) "zero" true (Cost.equal Cost.zero (Cost.make ~reconfig:0 ~drop:0))

let test_cost_ratio () =
  let c = Cost.make ~reconfig:6 ~drop:4 in
  Alcotest.(check bool) "ratio" true
    (Cost.ratio c (Cost.make ~reconfig:5 ~drop:0) = 2.0);
  Alcotest.(check bool) "zero/zero" true (Cost.ratio Cost.zero Cost.zero = 1.0);
  Alcotest.(check bool) "x/zero" true (Cost.ratio c Cost.zero = infinity)

let test_cost_pp () =
  Alcotest.(check string) "pp" "total=10 (reconfig=6, drop=4)"
    (Cost.to_string (Cost.make ~reconfig:6 ~drop:4))

let () =
  Alcotest.run "schedule"
    [
      ( "schedule",
        [
          Alcotest.test_case "counts" `Quick test_counts;
          Alcotest.test_case "cost recomputation" `Quick
            test_cost_recomputation;
          Alcotest.test_case "final cache" `Quick test_final_cache;
          Alcotest.test_case "events of round" `Quick test_events_of_round;
          Alcotest.test_case "pp" `Quick test_pp_does_not_raise;
        ] );
      ( "cost",
        [
          Alcotest.test_case "arithmetic" `Quick test_cost_arithmetic;
          Alcotest.test_case "ratio" `Quick test_cost_ratio;
          Alcotest.test_case "pp" `Quick test_cost_pp;
        ] );
    ]
