(* Tests that the validator accepts correct schedules and rejects every
   kind of tampering. *)

open Rrs_core

let arr round color count = { Types.round; color; count }

let instance =
  Instance.create ~delta:2 ~delay:[| 4; 4 |]
    ~arrivals:[ arr 0 0 6; arr 0 1 2; arr 4 0 1 ]
    ()

let record ~n instance factory =
  let events = Rrs_obs.Sink.memory () in
  let r = Engine.run (Engine.config ~n ~sink:events ()) instance factory in
  (r, Schedule.of_events ~n ~mini_rounds:1 (Rrs_obs.Sink.events events))

let good_schedule () = record ~n:2 instance (Static_policy.static [ 0; 1 ])

let test_accepts_engine_schedule () =
  let r, sched = good_schedule () in
  let report = Validator.check instance sched in
  if not report.ok then
    Alcotest.failf "valid schedule rejected: %a" Validator.pp_report report;
  Alcotest.(check bool) "cost agrees" true
    (Cost.equal report.recomputed_cost r.cost);
  Alcotest.(check int) "executed" r.executed report.executed

let tamper sched f =
  { sched with Schedule.events = Array.map f sched.Schedule.events }

let expect_rejected name report =
  if report.Validator.ok then Alcotest.failf "%s: tampering not detected" name

let test_rejects_wrong_color_execution () =
  let _, sched = good_schedule () in
  let bad =
    tamper sched (fun (r, e) ->
        match e with
        | Schedule.Execute x when x.resource = 0 ->
            (r, Schedule.Execute { x with color = 1 })
        | _ -> (r, e))
  in
  expect_rejected "wrong color" (Validator.check instance bad)

let test_rejects_double_execution () =
  let _, sched = good_schedule () in
  (* duplicate every execution event on resource 0 *)
  let events =
    Array.to_list sched.Schedule.events
    |> List.concat_map (fun (r, e) ->
           match e with
           | Schedule.Execute x when x.resource = 0 -> [ (r, e); (r, e) ]
           | _ -> [ (r, e) ])
    |> Array.of_list
  in
  expect_rejected "double execution"
    (Validator.check instance { sched with Schedule.events })

let test_rejects_phantom_reconfigure () =
  let _, sched = good_schedule () in
  let bad =
    tamper sched (fun (r, e) ->
        match e with
        | Schedule.Reconfigure x when x.resource = 1 ->
            (r, Schedule.Reconfigure { x with from_color = 0 })
        | _ -> (r, e))
  in
  expect_rejected "wrong from_color" (Validator.check instance bad)

let test_rejects_missing_drops_strict () =
  let _, sched = good_schedule () in
  let events =
    Array.of_list
      (List.filter
         (fun (_, e) -> match e with Schedule.Drop _ -> false | _ -> true)
         (Array.to_list sched.Schedule.events))
  in
  let stripped = { sched with Schedule.events } in
  (* strict mode notices missing drop declarations... *)
  (match Validator.check ~strict_drops:true instance stripped with
  | { ok = true; dropped = d; _ } when d > 0 ->
      Alcotest.fail "strict mode ignored missing drops"
  | _ -> ());
  (* ...lenient mode does not care about declarations *)
  let lenient = Validator.check ~strict_drops:false instance stripped in
  Alcotest.(check bool) "lenient ok" true lenient.ok

let test_rejects_out_of_range () =
  let _, sched = good_schedule () in
  let bad =
    tamper sched (fun (r, e) ->
        match e with
        | Schedule.Execute x -> (r, Schedule.Execute { x with resource = 9 })
        | _ -> (r, e))
  in
  expect_rejected "bad resource" (Validator.check instance bad)

let test_rejects_execution_after_deadline () =
  (* hand-build a schedule that executes a color-0 job at round 4 (its
     deadline): must be rejected, the drop phase precedes execution *)
  let sched =
    {
      Schedule.n = 1;
      mini_rounds = 1;
      events =
        [|
          ( 0,
            Schedule.Reconfigure
              {
                resource = 0;
                mini_round = 0;
                from_color = Types.black;
                to_color = 1;
              } );
          (4, Schedule.Execute { resource = 0; mini_round = 0; color = 1 });
        |];
    }
  in
  (* color 1's jobs arrive at round 0 with deadline 4 *)
  expect_rejected "deadline violation"
    (Validator.check ~strict_drops:false instance sched)

let test_rejects_self_reconfigure () =
  let sched =
    {
      Schedule.n = 1;
      mini_rounds = 1;
      events =
        [|
          ( 0,
            Schedule.Reconfigure
              {
                resource = 0;
                mini_round = 0;
                from_color = Types.black;
                to_color = Types.black;
              } );
        |];
    }
  in
  expect_rejected "self reconfigure"
    (Validator.check ~strict_drops:false instance sched)

(* lenient mode: drop declarations are ignored entirely, but the drop
   cost is still recomputed from the instance's own expirations and
   infeasible executions are still rejected *)
let strip_drops sched =
  let events =
    Array.of_list
      (List.filter
         (fun (_, e) -> match e with Schedule.Drop _ -> false | _ -> true)
         (Array.to_list sched.Schedule.events))
  in
  { sched with Schedule.events }

let test_lenient_recomputes_drop_cost () =
  let r, sched = good_schedule () in
  let report = Validator.check ~strict_drops:false instance (strip_drops sched) in
  Alcotest.(check bool) "ok without declarations" true report.ok;
  Alcotest.(check bool) "drop cost recomputed, not read from events" true
    (Cost.equal report.recomputed_cost r.cost);
  Alcotest.(check int) "executed" r.executed report.executed

let test_lenient_still_rejects_infeasible () =
  let _, sched = good_schedule () in
  let bad =
    tamper (strip_drops sched) (fun (r, e) ->
        match e with
        | Schedule.Execute x when x.resource = 0 ->
            (r, Schedule.Execute { x with color = 1 })
        | _ -> (r, e))
  in
  expect_rejected "lenient wrong color"
    (Validator.check ~strict_drops:false instance bad)

let contains haystack needle =
  let n = String.length needle and h = String.length haystack in
  let rec go i = i + n <= h && (String.sub haystack i n = needle || go (i + 1)) in
  go 0

let test_pp_report_valid () =
  let report, _ =
    let r, sched = good_schedule () in
    (Validator.check instance sched, r)
  in
  let rendered = Format.asprintf "%a" Validator.pp_report report in
  Alcotest.(check bool) "starts with valid" true
    (String.starts_with ~prefix:"valid:" rendered);
  Alcotest.(check bool) "counts present" true
    (contains rendered "executed" && contains rendered "dropped")

let test_pp_report_invalid () =
  let _, sched = good_schedule () in
  let bad =
    tamper sched (fun (r, e) ->
        match e with
        | Schedule.Execute x -> (r, Schedule.Execute { x with resource = 9 })
        | _ -> (r, e))
  in
  let report = Validator.check instance bad in
  let rendered = Format.asprintf "%a" Validator.pp_report report in
  Alcotest.(check bool) "header" true
    (contains rendered
       (Printf.sprintf "INVALID (%d violations)"
          (List.length report.Validator.violations)));
  Alcotest.(check bool) "violation lines carry rounds" true
    (contains rendered "[round ")

let test_check_result_detects_cost_mismatch () =
  let r, sched = good_schedule () in
  let lied = { r with Engine.cost = Cost.make ~reconfig:0 ~drop:0 } in
  let report = Validator.check_result instance sched lied in
  expect_rejected "cost lie" report

let () =
  Alcotest.run "validator"
    [
      ( "acceptance",
        [ Alcotest.test_case "engine schedule" `Quick test_accepts_engine_schedule ]
      );
      ( "rejection",
        [
          Alcotest.test_case "wrong color" `Quick
            test_rejects_wrong_color_execution;
          Alcotest.test_case "double execution" `Quick
            test_rejects_double_execution;
          Alcotest.test_case "phantom reconfigure" `Quick
            test_rejects_phantom_reconfigure;
          Alcotest.test_case "missing drops" `Quick
            test_rejects_missing_drops_strict;
          Alcotest.test_case "out of range" `Quick test_rejects_out_of_range;
          Alcotest.test_case "after deadline" `Quick
            test_rejects_execution_after_deadline;
          Alcotest.test_case "self reconfigure" `Quick
            test_rejects_self_reconfigure;
        ] );
      ( "lenient mode",
        [
          Alcotest.test_case "recomputes drop cost" `Quick
            test_lenient_recomputes_drop_cost;
          Alcotest.test_case "still rejects infeasible" `Quick
            test_lenient_still_rejects_infeasible;
        ] );
      ( "reporting",
        [
          Alcotest.test_case "pp_report valid" `Quick test_pp_report_valid;
          Alcotest.test_case "pp_report invalid" `Quick test_pp_report_invalid;
        ] );
      ( "check_result",
        [
          Alcotest.test_case "cost mismatch" `Quick
            test_check_result_detects_cost_mismatch;
        ] );
    ]
