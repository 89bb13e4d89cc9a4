(* Tests for the naive baseline policies and the urgency-inversion
   construction that defeats them. *)

open Rrs_core
module Adv = Rrs_workload.Adversarial

let arr round color count = { Types.round; color; count }

let greedy_p : Adv.greedy_params = { n = 8; delta = 4; w_exp = 4; k = 12 }

let test_greedy_params_checked () =
  Alcotest.(check bool) "valid" true (Adv.greedy_check greedy_p = Ok ());
  Alcotest.(check bool) "delta > window" true
    (Result.is_error (Adv.greedy_check { greedy_p with delta = 32 }));
  Alcotest.(check bool) "w >= k" true
    (Result.is_error (Adv.greedy_check { greedy_p with w_exp = 12 }));
  Alcotest.(check bool) "empty pile" true
    (Result.is_error (Adv.greedy_check { greedy_p with n = 8; k = 3 }))

let test_greedy_instance_shape () =
  let i = Adv.greedy_instance greedy_p in
  Alcotest.(check bool) "rate-limited" true (Instance.is_rate_limited i);
  Alcotest.(check int) "colors" 9 i.num_colors;
  (* heavies: 2^k / (2n) each; tight: delta per window over the horizon *)
  Alcotest.(check int) "heavy pile" (4096 / 16) (Instance.jobs_of_color i 0);
  Alcotest.(check int) "tight jobs" (4096 / 16 * 4) (Instance.jobs_of_color i 8);
  (* under-loaded for one offline resource: Par-EDF drops nothing *)
  Alcotest.(check int) "feasible for m=1" 0 (Par_edf.drop_cost i ~m:1)

let test_greedy_backlog_starves_tight_color () =
  let i = Adv.greedy_instance greedy_p in
  let r = Engine.run (Engine.config ~n:8 ()) i Naive_policies.greedy_backlog in
  (* the tight color (id 8) loses every batch while the piles drain *)
  Alcotest.(check bool)
    (Printf.sprintf "tight drops %d > 0" r.drops_by_color.(8))
    true
    (r.drops_by_color.(8) > 32)

let test_lru_edf_serves_tight_color () =
  let i = Adv.greedy_instance greedy_p in
  let r = Engine.run (Engine.config ~n:8 ()) i Lru_edf.policy in
  Alcotest.(check int) "no tight drops" 0 r.drops_by_color.(8)

let test_greedy_drops_grow_with_horizon () =
  let drops k =
    let i = Adv.greedy_instance { greedy_p with k } in
    let r = Engine.run (Engine.config ~n:8 ()) i Naive_policies.greedy_backlog in
    r.dropped
  in
  let d12 = drops 12 and d14 = drops 14 in
  Alcotest.(check bool)
    (Printf.sprintf "drops grow: %d < %d" d12 d14)
    true (d12 * 2 < d14)

let test_round_robin_executes () =
  (* round-robin is churny but must still serve a light load *)
  let i =
    Instance.create ~delta:1 ~delay:[| 4; 4 |]
      ~arrivals:[ arr 0 0 2; arr 0 1 2 ]
      ()
  in
  let r = Engine.run (Engine.config ~n:2 ()) i Naive_policies.round_robin in
  Alcotest.(check int) "all executed" 4 r.executed

let test_hysteresis_reduces_churn () =
  (* two colors with alternating small batches: plain greedy flips the
     cache; hysteresis keeps it put *)
  let i =
    Instance.create ~delta:8 ~delay:[| 2; 2 |]
      ~arrivals:
        (List.concat
           (List.init 16 (fun w ->
                if w mod 2 = 0 then [ arr (2 * w) 0 2; arr (2 * w) 1 1 ]
                else [ arr (2 * w) 0 1; arr (2 * w) 1 2 ])))
      ()
  in
  let churny =
    Engine.run (Engine.config ~n:1 ()) i Naive_policies.greedy_backlog
  in
  let steady =
    Engine.run (Engine.config ~n:1 ()) i
      (Naive_policies.greedy_backlog_hysteresis ~threshold:3)
  in
  Alcotest.(check bool)
    (Printf.sprintf "hysteresis reconfigures less: %d <= %d"
       steady.reconfigurations churny.reconfigurations)
    true
    (steady.reconfigurations <= churny.reconfigurations)

let test_classic_lru_pays_for_the_tail () =
  (* classic LRU reconfigures for sub-delta colors; dLRU never does
     (Lemma 3.1): on a pure-tail instance LRU's reconfig cost is ~delta
     per color while dLRU's is zero *)
  let i =
    Rrs_workload.Synthetic.longtail
      (Rrs_prng.Rng.create ~seed:9)
      { Rrs_workload.Synthetic.default_longtail with hot_colors = 1; tail_colors = 30 }
  in
  let lru = Engine.run (Engine.config ~n:4 ()) i Naive_policies.classic_lru in
  let dlru = Engine.run (Engine.config ~n:4 ()) i Delta_lru.policy in
  Alcotest.(check bool)
    (Printf.sprintf "lru reconfigs %d >> dlru %d" lru.cost.reconfig
       dlru.cost.reconfig)
    true
    (lru.cost.reconfig > 3 * max 1 dlru.cost.reconfig)

let test_classic_lru_recency () =
  (* with one slot, classic LRU holds the most recently requested color *)
  let i =
    Instance.create ~delta:1 ~delay:[| 8; 8 |]
      ~arrivals:
        [
          { Types.round = 0; color = 0; count = 1 };
          { Types.round = 8; color = 1; count = 1 };
        ]
      ()
  in
  let r =
    Engine.run (Engine.config ~n:1 ()) i
      Naive_policies.classic_lru
  in
  Alcotest.(check int) "both executed" 2 r.executed;
  Alcotest.(check (list int)) "ends on color 1" [ 1 ]
    (Array.to_list r.final_cache)

let test_threshold_validation () =
  let i = Instance.create ~delta:1 ~delay:[| 2 |] ~arrivals:[ arr 0 0 1 ] () in
  match
    Engine.run (Engine.config ~n:1 ()) i
      (Naive_policies.greedy_backlog_hysteresis ~threshold:(-1))
  with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "negative threshold accepted"

let test_baselines_conserve_jobs () =
  let i = Adv.greedy_instance { greedy_p with k = 10 } in
  List.iter
    (fun factory ->
      let r = Engine.run (Engine.config ~n:4 ()) i factory in
      Alcotest.(check int) "conservation" (Instance.total_jobs i)
        (r.executed + r.dropped))
    [
      Naive_policies.round_robin;
      Naive_policies.greedy_backlog;
      Naive_policies.greedy_backlog_hysteresis ~threshold:2;
    ]

let () =
  Alcotest.run "baselines"
    [
      ( "urgency inversion",
        [
          Alcotest.test_case "params checked" `Quick test_greedy_params_checked;
          Alcotest.test_case "instance shape" `Quick test_greedy_instance_shape;
          Alcotest.test_case "greedy starves tight color" `Quick
            test_greedy_backlog_starves_tight_color;
          Alcotest.test_case "lru-edf serves tight color" `Quick
            test_lru_edf_serves_tight_color;
          Alcotest.test_case "drops grow with horizon" `Quick
            test_greedy_drops_grow_with_horizon;
        ] );
      ( "policies",
        [
          Alcotest.test_case "round robin executes" `Quick
            test_round_robin_executes;
          Alcotest.test_case "hysteresis reduces churn" `Quick
            test_hysteresis_reduces_churn;
          Alcotest.test_case "classic lru pays for tail" `Quick
            test_classic_lru_pays_for_the_tail;
          Alcotest.test_case "classic lru recency" `Quick
            test_classic_lru_recency;
          Alcotest.test_case "threshold validation" `Quick
            test_threshold_validation;
          Alcotest.test_case "conservation" `Quick test_baselines_conserve_jobs;
        ] );
    ]
