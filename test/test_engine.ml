(* Engine semantics tests: the four-phase round structure, cost
   accounting, deadline windows, mini-rounds (double speed), cost
   projection, and conservation properties over random instances. *)

open Rrs_core

let arr round color count = { Types.round; color; count }

let mk ?(delta = 2) ~delay arrivals = Instance.create ~delta ~delay ~arrivals ()

let run ?(n = 1) ?(mini_rounds = 1) instance policy =
  Engine.run (Engine.config ~n ~mini_rounds ()) instance policy

let check_cost name (result : Engine.result) ~reconfig ~drop =
  Alcotest.(check bool)
    (Printf.sprintf "%s: %s = reconfig %d + drop %d" name
       (Cost.to_string result.cost) reconfig drop)
    true
    (Cost.equal result.cost (Cost.make ~reconfig ~drop))

let test_static_executes_all () =
  (* 3 jobs, delay 4, one resource configured from round 0: executes at
     rounds 0, 1, 2 *)
  let i = mk ~delay:[| 4 |] [ arr 0 0 3 ] in
  let r = run i (Static_policy.static [ 0 ]) in
  check_cost "all executed" r ~reconfig:2 ~drop:0;
  Alcotest.(check int) "executed" 3 r.executed

let test_static_overflow_drops () =
  (* 6 jobs, window of 4 execution rounds -> 2 drops *)
  let i = mk ~delay:[| 4 |] [ arr 0 0 6 ] in
  let r = run i (Static_policy.static [ 0 ]) in
  check_cost "overflow" r ~reconfig:2 ~drop:2;
  Alcotest.(check int) "executed" 4 r.executed

let test_delay_one_window () =
  (* delay 1: exactly one execution opportunity, in the arrival round *)
  let i = mk ~delay:[| 1 |] [ arr 0 0 1; arr 2 0 2 ] in
  let r = run i (Static_policy.static [ 0 ]) in
  (* round 0: exec 1; round 2: one of the two jobs runs, other drops at 3 *)
  check_cost "delay-1" r ~reconfig:2 ~drop:1;
  Alcotest.(check int) "executed" 2 r.executed

let test_black_drops_everything () =
  let i = mk ~delay:[| 4; 2 |] [ arr 0 0 3; arr 2 1 2 ] in
  let r = run i Static_policy.black in
  check_cost "black" r ~reconfig:0 ~drop:5;
  Alcotest.(check (list int)) "drops by color" [ 3; 2 ]
    (Array.to_list r.drops_by_color)

let test_drop_phase_precedes_execution () =
  (* a job with deadline = round r cannot be executed in round r *)
  let i = mk ~delay:[| 2 |] [ arr 0 0 3 ] in
  (* configure only from round 2 on: jobs expired in round 2's drop phase *)
  let late = Static_policy.piecewise [ (0, []); (2, [ 0 ]) ] in
  let r = run i late in
  Alcotest.(check int) "all dropped" 3 r.dropped;
  Alcotest.(check int) "none executed" 0 r.executed

let test_reconfig_cost_per_switch () =
  let i = mk ~delta:3 ~delay:[| 8; 8 |] [ arr 0 0 1; arr 0 1 1 ] in
  let p = Static_policy.piecewise [ (0, [ 0 ]); (1, [ 1 ]); (2, [ 0 ]) ] in
  let r = run i p in
  (* three recolorings of the single resource at delta=3; executes one of
     each color in rounds 0 and 1 *)
  Alcotest.(check int) "reconfigurations" 3 r.reconfigurations;
  check_cost "switching" r ~reconfig:9 ~drop:0

let test_mini_rounds_double_throughput () =
  let i = mk ~delay:[| 4 |] [ arr 0 0 8 ] in
  let r1 = run i (Static_policy.static [ 0 ]) in
  let r2 = run ~mini_rounds:2 i (Static_policy.static [ 0 ]) in
  Alcotest.(check int) "uni-speed executes 4" 4 r1.executed;
  Alcotest.(check int) "double-speed executes 8" 8 r2.executed;
  Alcotest.(check int) "double-speed drops none" 0 r2.dropped

let test_multiple_resources_same_color () =
  (* two resources on one color execute two jobs per round *)
  let i = mk ~delay:[| 2 |] [ arr 0 0 4 ] in
  let r = run ~n:2 i (Static_policy.static [ 0; 0 ]) in
  Alcotest.(check int) "executed" 4 r.executed;
  check_cost "parallel" r ~reconfig:4 ~drop:0

let test_cost_projection () =
  (* two colors that project to the same original color: switching between
     them is free under projection *)
  let i = mk ~delay:[| 4; 4 |] [ arr 0 0 2; arr 0 1 2 ] in
  let p = Static_policy.piecewise [ (0, [ 0 ]); (2, [ 1 ]) ] in
  let cfg =
    Engine.config ~n:1 ~cost_projection:(fun c -> if c >= 0 then 0 else c) ()
  in
  let r = Engine.run cfg i p in
  Alcotest.(check int) "projected reconfigurations" 1 r.reconfigurations;
  Alcotest.(check int) "executed" 4 r.executed

let test_final_cache () =
  let i = mk ~delay:[| 4; 4 |] [ arr 0 0 1 ] in
  let r = run ~n:2 i (Static_policy.static [ 1; 0 ]) in
  Alcotest.(check (list int)) "final cache" [ 1; 0 ]
    (Array.to_list r.final_cache)

let test_policy_misbehavior_rejected () =
  let i = mk ~delay:[| 2 |] [ arr 0 0 1 ] in
  let bad_length _instance ~n:_ =
    { Policy.name = "bad"; reconfigure = (fun _ -> [| 0; 0 |]); codec = None }
  in
  (match run i bad_length with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "wrong-length assignment accepted");
  let bad_color _instance ~n =
    { Policy.name = "bad"; reconfigure = (fun _ -> Array.make n 7); codec = None }
  in
  match run i bad_color with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range color accepted"

let test_view_contents () =
  (* the view must expose this round's arrivals and drops *)
  let i = mk ~delay:[| 2 |] [ arr 0 0 3 ] in
  let seen_arrivals = ref [] in
  let seen_drops = ref [] in
  let spy _instance ~n =
    {
      Policy.name = "spy";
      codec = None;
      reconfigure =
        (fun view ->
          if view.arrivals <> [] then
            seen_arrivals := (view.round, view.arrivals) :: !seen_arrivals;
          if view.dropped <> [] then
            seen_drops := (view.round, view.dropped) :: !seen_drops;
          Array.make n Types.black);
    }
  in
  ignore (run i spy);
  Alcotest.(check (list (pair int (list (pair int int)))))
    "arrivals seen" [ (0, [ (0, 3) ]) ] !seen_arrivals;
  Alcotest.(check (list (pair int (list (pair int int)))))
    "drops seen at deadline" [ (2, [ (0, 3) ]) ] !seen_drops

(* random-instance generator for conservation properties *)
let gen_instance =
  QCheck.Gen.(
    let* num_colors = int_range 1 4 in
    let* delta = int_range 1 3 in
    let* delay =
      array_size (return num_colors) (map (fun e -> 1 lsl e) (int_range 0 3))
    in
    let* batches = list_size (int_range 0 20) (triple (int_range 0 30) (int_range 0 (num_colors - 1)) (int_range 1 4)) in
    let arrivals = List.map (fun (r, c, n) -> arr r c n) batches in
    return (Instance.create ~delta ~delay ~arrivals ()))

let arbitrary_instance =
  QCheck.make gen_instance ~print:(fun i -> Format.asprintf "%a" Instance.pp_full i)

let prop_conservation =
  QCheck.Test.make ~count:200 ~name:"executed + dropped = total jobs"
    arbitrary_instance
    (fun i ->
      List.for_all
        (fun policy ->
          let r = run ~n:4 i policy in
          r.executed + r.dropped = Instance.total_jobs i)
        [
          Static_policy.black;
          Static_policy.static [ 0 ];
          Lru_edf.policy;
          Delta_lru.policy;
          Edf_policy.policy;
        ])

let prop_engine_schedule_validates =
  QCheck.Test.make ~count:100 ~name:"engine schedules pass the validator"
    arbitrary_instance
    (fun i ->
      List.for_all
        (fun policy ->
          let events = Rrs_obs.Sink.memory () in
          let r = Engine.run (Engine.config ~n:4 ~sink:events ()) i policy in
          let schedule =
            Schedule.of_events ~n:4 ~mini_rounds:1 (Rrs_obs.Sink.events events)
          in
          (Validator.check_result i schedule r).ok)
        [
          Static_policy.static [ 0 ];
          Lru_edf.policy;
          Edf_policy.policy;
          Delta_lru.policy;
          Naive_policies.classic_lru;
          Naive_policies.greedy_backlog;
          Naive_policies.greedy_backlog_hysteresis ~threshold:2;
          Naive_policies.round_robin;
        ])

let prop_replication_invariant =
  QCheck.Test.make ~count:100
    ~name:"replicated policies cache every color exactly twice"
    arbitrary_instance
    (fun i ->
      List.for_all
        (fun policy ->
          let r = run ~n:4 i policy in
          let counts = Hashtbl.create 8 in
          Array.iter
            (fun c ->
              if c <> Types.black then
                Hashtbl.replace counts c
                  (1 + Option.value ~default:0 (Hashtbl.find_opt counts c)))
            r.final_cache;
          Hashtbl.fold (fun _ k acc -> acc && k = 2) counts true)
        [ Lru_edf.policy; Delta_lru.policy; Edf_policy.policy ])

let prop_more_resources_never_hurt_static =
  QCheck.Test.make ~count:100
    ~name:"static policy with more copies drops no more" arbitrary_instance
    (fun i ->
      let r1 = run ~n:1 i (Static_policy.static [ 0 ]) in
      let r2 = run ~n:2 i (Static_policy.static [ 0; 0 ]) in
      r2.dropped <= r1.dropped)

let () =
  let q = QCheck_alcotest.to_alcotest in
  Alcotest.run "engine"
    [
      ( "semantics",
        [
          Alcotest.test_case "static executes all" `Quick
            test_static_executes_all;
          Alcotest.test_case "overflow drops" `Quick test_static_overflow_drops;
          Alcotest.test_case "delay-1 window" `Quick test_delay_one_window;
          Alcotest.test_case "black drops all" `Quick test_black_drops_everything;
          Alcotest.test_case "drop before execution" `Quick
            test_drop_phase_precedes_execution;
          Alcotest.test_case "reconfig cost" `Quick test_reconfig_cost_per_switch;
          Alcotest.test_case "mini-rounds" `Quick
            test_mini_rounds_double_throughput;
          Alcotest.test_case "parallel same color" `Quick
            test_multiple_resources_same_color;
          Alcotest.test_case "cost projection" `Quick test_cost_projection;
          Alcotest.test_case "final cache" `Quick test_final_cache;
          Alcotest.test_case "misbehaving policy" `Quick
            test_policy_misbehavior_rejected;
          Alcotest.test_case "view contents" `Quick test_view_contents;
        ] );
      ( "properties",
        [
          q prop_conservation;
          q prop_engine_schedule_validates;
          q prop_replication_invariant;
          q prop_more_resources_never_hurt_static;
        ] );
    ]
