(* Tests for the Aggregate transformation (paper Section 4.3 / Lemma
   4.1): for feasible offline schedules T of batched instances, the
   transformed schedule T' must be feasible for the distributed
   sub-instance with 3x resources, execute exactly as many jobs, and pay
   a bounded multiple of T's reconfiguration cost. *)

open Rrs_core
module Synthetic = Rrs_workload.Synthetic
module Rng = Rrs_prng.Rng

let arr round color count = { Types.round; color; count }

let record ~n instance factory =
  let events = Rrs_obs.Sink.memory () in
  let r = Engine.run (Engine.config ~n ~sink:events ()) instance factory in
  (r, Schedule.of_events ~n ~mini_rounds:1 (Rrs_obs.Sink.events events))

let test_single_mono_resource () =
  (* one color, batch within D: one static resource is monochromatic;
     the transform must produce the same executions on triple head 0 *)
  let i = Instance.create ~delta:1 ~delay:[| 4 |] ~arrivals:[ arr 0 0 3 ] () in
  let mapping = Distribute.transform i in
  let t = snd (record ~n:1 i (Static_policy.static [ 0 ])) in
  match Aggregate.verify i ~mapping t with
  | Error msg -> Alcotest.fail msg
  | Ok (t', report) ->
      Alcotest.(check int) "3x resources" 3 t'.Schedule.n;
      Alcotest.(check int) "same executions" (Schedule.execute_count t)
        report.executed;
      Alcotest.(check int) "one reconfiguration" 1
        (Schedule.reconfig_count t')

let test_oversized_batch_uses_two_subcolors () =
  (* batch of 6 with D=4 splits into subcolors of 4 and 2; T with two
     static resources executes all 6, so T' must use both subcolors *)
  let i = Instance.create ~delta:1 ~delay:[| 4 |] ~arrivals:[ arr 0 0 6 ] () in
  let mapping = Distribute.transform i in
  let t = snd (record ~n:2 i (Static_policy.static [ 0; 0 ])) in
  Alcotest.(check int) "T executes 6" 6 (Schedule.execute_count t);
  match Aggregate.verify i ~mapping t with
  | Error msg -> Alcotest.fail msg
  | Ok (t', report) ->
      Alcotest.(check int) "T' executes 6" 6 report.executed;
      (* both subcolors appear in the executions *)
      let subcolors = Hashtbl.create 4 in
      Array.iter
        (fun (_, e) ->
          match e with
          | Schedule.Execute { color; _ } -> Hashtbl.replace subcolors color ()
          | _ -> ())
        t'.Schedule.events;
      Alcotest.(check int) "two subcolors" 2 (Hashtbl.length subcolors)

let test_label_persistence_avoids_reconfigs () =
  (* a static resource serving the same color across many blocks must
     keep one subcolor stream: exactly one reconfiguration in T' *)
  let i =
    Instance.create ~delta:1 ~delay:[| 4 |]
      ~arrivals:(List.init 8 (fun b -> arr (4 * b) 0 3))
      ()
  in
  let mapping = Distribute.transform i in
  let t = snd (record ~n:1 i (Static_policy.static [ 0 ])) in
  match Aggregate.verify i ~mapping t with
  | Error msg -> Alcotest.fail msg
  | Ok (t', _) ->
      Alcotest.(check int) "single stream, single reconfig" 1
        (Schedule.reconfig_count t')

let test_rejects_bad_inputs () =
  let unbatched =
    Instance.create ~delta:1 ~delay:[| 4 |] ~arrivals:[ arr 1 0 1 ] ()
  in
  let batched =
    Instance.create ~delta:1 ~delay:[| 4 |] ~arrivals:[ arr 0 0 1 ] ()
  in
  let mapping = Distribute.transform batched in
  let t = snd (record ~n:1 batched (Static_policy.static [ 0 ])) in
  (match Aggregate.transform unbatched ~mapping t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unbatched accepted");
  let odd = Instance.create ~delta:1 ~delay:[| 6 |] ~arrivals:[ arr 0 0 1 ] () in
  (match Aggregate.transform odd ~mapping t with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "non-pow2 accepted");
  let ds = { t with Schedule.mini_rounds = 2 } in
  match Aggregate.transform batched ~mapping ds with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double-speed accepted"

(* property-style sweep over generated batched instances and several
   offline schedules *)
let offline_schedules instance ~m =
  [
    ("static", Static_policy.static (List.init (min m instance.Instance.num_colors) Fun.id));
    ("interval-8", Offline_heuristics.interval_plan instance ~m ~window:8);
    ("interval-32", Offline_heuristics.interval_plan instance ~m ~window:32);
  ]

let test_online_schedule_as_input () =
  (* any feasible schedule is a valid input — including churny online
     ones, which stress the monochromatic/multichromatic classification
     far harder than piecewise-static plans *)
  let rng = Rng.create ~seed:66 in
  for _ = 1 to 4 do
    let instance =
      Synthetic.batched_oversized (Rng.split rng)
        { Synthetic.default_batched with num_colors = 6; load = 1.4; horizon = 128 }
    in
    let mapping = Distribute.transform instance in
    List.iter
      (fun (name, policy) ->
        let result, t = record ~n:4 instance policy in
        match Aggregate.verify instance ~mapping t with
        | Error msg -> Alcotest.failf "%s input: %s" name msg
        | Ok (_, report) ->
            Alcotest.(check int)
              (name ^ ": executions preserved")
              result.executed report.executed)
      [
        ("lru-edf", Lru_edf.policy);
        ("edf", Edf_policy.policy);
        ("greedy", Naive_policies.greedy_backlog);
      ]
  done

let test_lemma_4_1_shape () =
  let rng = Rng.create ~seed:55 in
  let checked = ref 0 in
  for _ = 1 to 6 do
    let instance =
      Synthetic.batched_oversized (Rng.split rng)
        {
          Synthetic.default_batched with
          num_colors = 5;
          load = 1.6;
          horizon = 128;
        }
    in
    let mapping = Distribute.transform instance in
    let m = 3 in
    List.iter
      (fun (name, policy) ->
        incr checked;
        let result, t = record ~n:m instance policy in
        match Aggregate.verify instance ~mapping t with
        | Error msg -> Alcotest.failf "%s: %s" name msg
        | Ok (t', report) ->
            (* Lemma 4.5: same drop cost <=> same executions *)
            Alcotest.(check int)
              (name ^ ": executions preserved")
              result.executed report.executed;
            (* Lemma 4.6 shape: reconfiguration cost within a constant
               factor (the paper's constants sum to < 10; allow slack,
               plus the warm-up term for initially coloring resources) *)
            let in_cost = max 1 (Schedule.reconfig_count t) in
            let out_cost = Schedule.reconfig_count t' in
            if out_cost > (10 * in_cost) + (3 * m) then
              Alcotest.failf "%s: reconfigs %d vs input %d - unbounded?" name
                out_cost in_cost)
      (offline_schedules instance ~m)
  done;
  Alcotest.(check bool) "checked some" true (!checked > 0)

let test_transform_of_rate_limited_is_cheap () =
  (* when batches already fit in D, the sub-instance equals the original
     (one subcolor per color) and T' mirrors T *)
  let i =
    Instance.create ~delta:1 ~delay:[| 2; 4 |]
      ~arrivals:[ arr 0 0 2; arr 0 1 3; arr 4 1 2 ]
      ()
  in
  let mapping = Distribute.transform i in
  let t = snd (record ~n:2 i (Static_policy.static [ 0; 1 ])) in
  match Aggregate.verify i ~mapping t with
  | Error msg -> Alcotest.fail msg
  | Ok (_, report) ->
      Alcotest.(check int) "executions preserved" (Schedule.execute_count t)
        report.executed

let () =
  Alcotest.run "aggregate"
    [
      ( "unit",
        [
          Alcotest.test_case "single mono resource" `Quick
            test_single_mono_resource;
          Alcotest.test_case "oversized batch" `Quick
            test_oversized_batch_uses_two_subcolors;
          Alcotest.test_case "label persistence" `Quick
            test_label_persistence_avoids_reconfigs;
          Alcotest.test_case "input validation" `Quick test_rejects_bad_inputs;
        ] );
      ( "lemma 4.1",
        [
          Alcotest.test_case "shape sweep" `Slow test_lemma_4_1_shape;
          Alcotest.test_case "online schedules as input" `Slow
            test_online_schedule_as_input;
          Alcotest.test_case "rate-limited passthrough" `Quick
            test_transform_of_rate_limited_is_cheap;
        ] );
    ]
