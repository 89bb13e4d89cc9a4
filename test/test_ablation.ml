(* Tests for the tunable ΔLRU-EDF variant used by the ablation
   experiments. *)

open Rrs_core
module Adv = Rrs_workload.Adversarial

let arr round color count = { Types.round; color; count }

let mk ?(delta = 2) ~delay arrivals = Instance.create ~delta ~delay ~arrivals ()

let run ~n instance (instr : Lru_edf.instrumented) =
  Engine.run_policy (Engine.config ~n ()) instance instr.policy

let test_paper_point_equals_make () =
  (* make_tuned at the paper's parameters must behave exactly like make *)
  let instance =
    Adv.dlru_instance { n = 8; delta = 2; j = 5; k = 7 }
  in
  let a = run ~n:8 instance (Lru_edf.make instance ~n:8) in
  let b =
    run ~n:8 instance
      (Lru_edf.make_tuned ~lru_slots:2 ~distinct_slots:4 ~replicated:true
         instance ~n:8)
  in
  Alcotest.(check bool) "same cost" true (Cost.equal a.cost b.cost);
  Alcotest.(check int) "same executions" a.executed b.executed

let test_full_lru_share_matches_dlru () =
  (* lru_slots = distinct_slots: the EDF quota is zero, so the scheme
     reduces to ΔLRU (same cached set each round) *)
  let instance = Adv.dlru_instance { n = 8; delta = 2; j = 5; k = 7 } in
  let tuned =
    run ~n:8 instance
      (Lru_edf.make_tuned ~lru_slots:4 ~distinct_slots:4 ~replicated:true
         instance ~n:8)
  in
  let dlru =
    Engine.run (Engine.config ~n:8 ()) instance Delta_lru.policy
  in
  Alcotest.(check bool) "same cost as dlru" true
    (Cost.equal tuned.cost dlru.cost)

let test_zero_lru_share_matches_edf () =
  let instance = Adv.edf_instance { n = 4; delta = 6; j = 3; k = 6 } in
  let tuned =
    run ~n:4 instance
      (Lru_edf.make_tuned ~lru_slots:0 ~distinct_slots:2 ~replicated:true
         instance ~n:4)
  in
  let edf = Engine.run (Engine.config ~n:4 ()) instance Edf_policy.policy in
  Alcotest.(check bool) "same cost as edf" true (Cost.equal tuned.cost edf.cost)

let test_flat_layout_size_checks () =
  let i = mk ~delay:[| 2 |] [] in
  (match
     Lru_edf.make_tuned ~lru_slots:2 ~distinct_slots:4 ~replicated:false i ~n:8
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "flat layout with wrong n accepted");
  (match
     Lru_edf.make_tuned ~lru_slots:5 ~distinct_slots:4 ~replicated:true i ~n:8
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized lru share accepted");
  (* valid flat layout runs *)
  let i2 = mk ~delta:1 ~delay:[| 2; 2 |] [ arr 0 0 2; arr 0 1 2 ] in
  let r =
    run ~n:4 i2
      (Lru_edf.make_tuned ~lru_slots:2 ~distinct_slots:4 ~replicated:false i2
         ~n:4)
  in
  Alcotest.(check int) "flat layout serves everything" 0 r.dropped

let test_flat_layout_caches_distinct () =
  (* without replication every resource may hold a distinct color *)
  let i =
    mk ~delta:1 ~delay:[| 2; 2; 2; 2 |]
      [ arr 0 0 2; arr 0 1 2; arr 0 2 2; arr 0 3 2 ]
  in
  let instr =
    Lru_edf.make_tuned ~lru_slots:2 ~distinct_slots:4 ~replicated:false i ~n:4
  in
  let r = Engine.run_policy (Engine.config ~n:4 ()) i instr.policy in
  let distinct = List.sort_uniq compare (Array.to_list r.final_cache) in
  Alcotest.(check int) "four distinct colors" 4 (List.length distinct);
  Alcotest.(check int) "no drops" 0 r.dropped

let () =
  Alcotest.run "ablation"
    [
      ( "make_tuned",
        [
          Alcotest.test_case "paper point = make" `Quick
            test_paper_point_equals_make;
          Alcotest.test_case "full LRU share = dlru" `Quick
            test_full_lru_share_matches_dlru;
          Alcotest.test_case "zero LRU share = edf" `Quick
            test_zero_lru_share_matches_edf;
          Alcotest.test_case "size checks" `Quick test_flat_layout_size_checks;
          Alcotest.test_case "flat layout distinct" `Quick
            test_flat_layout_caches_distinct;
        ] );
    ]
