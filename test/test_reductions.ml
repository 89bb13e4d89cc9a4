(* Tests for the two reductions: Distribute (Section 4) and VarBatch
   (Section 5). *)

open Rrs_core
module Synthetic = Rrs_workload.Synthetic
module Rng = Rrs_prng.Rng

let arr round color count = { Types.round; color; count }

(* ------------------------------------------------------------------ *)
(* Distribute                                                          *)
(* ------------------------------------------------------------------ *)

let test_transform_splits_batches () =
  (* one color, D=2, batch of 5 -> subcolors of sizes 2,2,1 *)
  let i = Instance.create ~delta:2 ~delay:[| 2 |] ~arrivals:[ arr 0 0 5 ] () in
  let m = Distribute.transform i in
  Alcotest.(check bool) "rate-limited" true
    (Instance.is_rate_limited m.sub_instance);
  Alcotest.(check int) "3 subcolors" 3 m.sub_instance.num_colors;
  Alcotest.(check int) "jobs conserved" 5 (Instance.total_jobs m.sub_instance);
  Alcotest.(check (list int)) "chunks" [ 2; 2; 1 ]
    (Array.to_list (Instance.jobs_per_color m.sub_instance));
  Alcotest.(check (list int)) "delays inherited" [ 2; 2; 2 ]
    (Array.to_list m.sub_instance.delay);
  Alcotest.(check int) "projection" 0 (Distribute.project m 0);
  Alcotest.(check int) "projection 2" 0 (Distribute.project m 2);
  Alcotest.(check int) "black projects to black" Types.black
    (Distribute.project m Types.black)

let test_transform_already_rate_limited_is_identityish () =
  (* batches within D need one subcolor per color *)
  let i =
    Instance.create ~delta:2 ~delay:[| 4; 2 |]
      ~arrivals:[ arr 0 0 3; arr 4 0 2; arr 0 1 2 ]
      ()
  in
  let m = Distribute.transform i in
  Alcotest.(check int) "one subcolor per color" 2 m.sub_instance.num_colors;
  Alcotest.(check int) "jobs conserved" 7 (Instance.total_jobs m.sub_instance)

let test_transform_rejects_unbatched () =
  let i = Instance.create ~delta:1 ~delay:[| 4 |] ~arrivals:[ arr 1 0 1 ] () in
  match Distribute.transform i with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "unbatched instance accepted"

let test_subcolor_ranges () =
  let i =
    Instance.create ~delta:1 ~delay:[| 2; 4 |]
      ~arrivals:[ arr 0 0 5; arr 2 0 3; arr 0 1 9 ]
      ()
  in
  let m = Distribute.transform i in
  (* color 0: max batch 5 over D=2 -> 3 subs; color 1: 9 over 4 -> 3 subs *)
  Alcotest.(check int) "total subs" 6 m.sub_instance.num_colors;
  Alcotest.(check (list int)) "subs of color 0" [ 0; 1; 2 ] m.subs_of_orig.(0);
  Alcotest.(check (list int)) "subs of color 1" [ 3; 4; 5 ] m.subs_of_orig.(1);
  Array.iteri
    (fun sub orig ->
      if not (List.mem sub m.subs_of_orig.(orig)) then
        Alcotest.failf "sub %d not listed under %d" sub orig)
    m.orig_of_sub

let test_distribute_run_drop_costs_match () =
  (* Lemma 4.2: the projected schedule has the same drop cost and at most
     the reconfiguration cost of the sub-schedule *)
  let rng = Rng.create ~seed:5 in
  for _ = 1 to 5 do
    let i =
      Synthetic.batched_oversized (Rng.split rng)
        { Synthetic.default_batched with load = 2.0; horizon = 128 }
    in
    let mapping = Distribute.transform i in
    let projected = Distribute.run i ~n:8 in
    let raw =
      Engine.run (Engine.config ~n:8 ()) mapping.sub_instance Lru_edf.policy
    in
    Alcotest.(check int) "drops equal" raw.dropped projected.dropped;
    Alcotest.(check bool) "projected reconfig <= raw" true
      (projected.cost.reconfig <= raw.cost.reconfig)
  done

(* Distribute's projected run, recorded off its engine events (in
   original colors); the trace comes back too. *)
let run_distributed ~n instance =
  let events = Rrs_obs.Sink.memory () in
  let r = Distribute.run ~sink:events instance ~n in
  let trace = Rrs_obs.Sink.events events in
  (r, Schedule.of_events ~n ~mini_rounds:1 trace, trace)

let test_distribute_schedule_validates_against_original () =
  (* sub-instance deadlines coincide with the original's, so the projected
     schedule passes strict validation against the original instance *)
  let rng = Rng.create ~seed:11 in
  let i =
    Synthetic.batched_oversized (Rng.split rng)
      { Synthetic.default_batched with load = 1.8; horizon = 64 }
  in
  let r, schedule, _ = run_distributed ~n:8 i in
  let report = Validator.check ~strict_drops:true i schedule in
  if not report.ok then
    Alcotest.failf "projected schedule invalid: %s"
      (Format.asprintf "%a" Validator.pp_report report);
  Alcotest.(check bool) "cost matches too" true
    (Cost.equal report.recomputed_cost r.cost)

let test_distribute_events_balance_per_color () =
  (* every engine phase event is in original colors, arrivals included,
     so per color the trace's arrivals equal its drops plus executions *)
  let rng = Rng.create ~seed:13 in
  let i =
    Synthetic.batched_oversized (Rng.split rng)
      { Synthetic.default_batched with load = 1.8; horizon = 64 }
  in
  let _, _, trace = run_distributed ~n:8 i in
  let balance = Array.make i.num_colors 0 in
  let add color k =
    if color < 0 || color >= i.num_colors then
      Alcotest.failf "event color %d is not an original color" color;
    balance.(color) <- balance.(color) + k
  in
  List.iter
    (function
      | Rrs_obs.Event.Arrival { color; count; _ } -> add color count
      | Drop { color; count; _ } -> add color (-count)
      | Execute { color; _ } -> add color (-1)
      | _ -> ())
    trace;
  Array.iteri
    (fun color b ->
      Alcotest.(check int) (Printf.sprintf "color %d balance" color) 0 b)
    balance

(* ------------------------------------------------------------------ *)
(* VarBatch                                                            *)
(* ------------------------------------------------------------------ *)

let test_batched_delay () =
  Alcotest.(check int) "1 -> 1" 1 (Var_batch.batched_delay 1);
  Alcotest.(check int) "2 -> 1" 1 (Var_batch.batched_delay 2);
  Alcotest.(check int) "4 -> 2" 2 (Var_batch.batched_delay 4);
  Alcotest.(check int) "8 -> 4" 4 (Var_batch.batched_delay 8);
  (* Section 5.3 extension: 2^j <= p < 2^(j+1) uses half-blocks of
     2^(j-1) *)
  Alcotest.(check int) "5 -> 2" 2 (Var_batch.batched_delay 5);
  Alcotest.(check int) "7 -> 2" 2 (Var_batch.batched_delay 7);
  Alcotest.(check int) "9 -> 4" 4 (Var_batch.batched_delay 9);
  Alcotest.check_raises "0 rejected" (Invalid_argument "Var_batch.batched_delay")
    (fun () -> ignore (Var_batch.batched_delay 0))

let test_transform_produces_batched () =
  let rng = Rng.create ~seed:3 in
  for _ = 1 to 10 do
    let i = Synthetic.unbatched (Rng.split rng) Synthetic.default_unbatched in
    let t = Var_batch.transform i in
    Alcotest.(check bool) "batched" true (Instance.is_batched t);
    Alcotest.(check int) "jobs conserved" (Instance.total_jobs i)
      (Instance.total_jobs t)
  done

let test_transform_windows_nest () =
  (* each transformed job's execution window sits inside the original's *)
  let i =
    Instance.create ~delta:1 ~delay:[| 12 |] ~arrivals:[ arr 7 0 1 ] ()
  in
  let t = Var_batch.transform i in
  (* D=12: 2^3 <= 12 < 2^4, half-block 4; arrival 7 is in half-block 1,
     delayed to round 8 with new bound 4: window [8,12) inside [7,19) *)
  Alcotest.(check int) "new delay" 4 t.delay.(0);
  Alcotest.(check int) "delayed arrival" 8 t.arrivals.(0).round;
  Alcotest.(check bool) "window inside" true
    (8 >= 7 && 8 + 4 <= 7 + 12)

let prop_windows_nest =
  QCheck.Test.make ~count:300 ~name:"VarBatch windows nest in the originals"
    QCheck.(pair (int_range 0 200) (int_range 2 100))
    (fun (round, d) ->
      let d' = Var_batch.batched_delay d in
      let i = round / d' in
      let new_round = (i + 1) * d' in
      new_round >= round && new_round + d' <= round + d)

let test_delay_one_passthrough () =
  let i =
    Instance.create ~delta:1 ~delay:[| 1 |] ~arrivals:[ arr 3 0 2 ] ()
  in
  let t = Var_batch.transform i in
  Alcotest.(check int) "round unchanged" 3 t.arrivals.(0).round;
  Alcotest.(check int) "delay unchanged" 1 t.delay.(0)

let test_pipeline_executions_feasible () =
  (* the full pipeline's schedule must be feasible for the original
     instance (lenient validation: drop timing differs by construction) *)
  let rng = Rng.create ~seed:21 in
  let i = Synthetic.unbatched (Rng.split rng) Synthetic.default_unbatched in
  let r, schedule, _ = run_distributed ~n:8 (Var_batch.transform i) in
  let report = Validator.check ~strict_drops:false i schedule in
  if not report.ok then
    Alcotest.failf "pipeline schedule infeasible: %s"
      (Format.asprintf "%a" Validator.pp_report report);
  Alcotest.(check int) "same executions" r.executed report.executed;
  Alcotest.(check int) "same drops" r.dropped report.dropped

let test_pipeline_runs_on_anything () =
  let rng = Rng.create ~seed:31 in
  for _ = 1 to 5 do
    let i = Synthetic.unbatched (Rng.split rng) Synthetic.default_unbatched in
    let r = Var_batch.run i ~n:8 in
    Alcotest.(check int) "conservation"
      (Instance.total_jobs i)
      (r.executed + r.dropped)
  done

let test_pipeline_beats_black_under_load () =
  (* sanity: the pipeline executes a decent share of a feasible load *)
  let rng = Rng.create ~seed:41 in
  let i =
    Synthetic.unbatched (Rng.split rng)
      { Synthetic.default_unbatched with arrival_rate = 0.1; max_batch = 3 }
  in
  let r = Var_batch.run i ~n:16 in
  let total = Instance.total_jobs i in
  Alcotest.(check bool)
    (Printf.sprintf "executed %d of %d" r.executed total)
    true
    (float_of_int r.executed > 0.5 *. float_of_int total)

let () =
  Alcotest.run "reductions"
    [
      ( "distribute",
        [
          Alcotest.test_case "splits batches" `Quick test_transform_splits_batches;
          Alcotest.test_case "rate-limited passthrough" `Quick
            test_transform_already_rate_limited_is_identityish;
          Alcotest.test_case "rejects unbatched" `Quick
            test_transform_rejects_unbatched;
          Alcotest.test_case "subcolor ranges" `Quick test_subcolor_ranges;
          Alcotest.test_case "drop costs match (Lemma 4.2)" `Slow
            test_distribute_run_drop_costs_match;
          Alcotest.test_case "events balance per original color" `Quick
            test_distribute_events_balance_per_color;
          Alcotest.test_case "projected schedule validates" `Slow
            test_distribute_schedule_validates_against_original;
        ] );
      ( "varbatch",
        [
          Alcotest.test_case "batched_delay" `Quick test_batched_delay;
          Alcotest.test_case "produces batched" `Quick
            test_transform_produces_batched;
          Alcotest.test_case "windows nest" `Quick test_transform_windows_nest;
          QCheck_alcotest.to_alcotest prop_windows_nest;
          Alcotest.test_case "delay-1 passthrough" `Quick
            test_delay_one_passthrough;
        ] );
      ( "pipeline (Theorem 3)",
        [
          Alcotest.test_case "executions feasible" `Slow
            test_pipeline_executions_feasible;
          Alcotest.test_case "runs on anything" `Slow
            test_pipeline_runs_on_anything;
          Alcotest.test_case "serves feasible load" `Slow
            test_pipeline_beats_black_under_load;
        ] );
    ]
