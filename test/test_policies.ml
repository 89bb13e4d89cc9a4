(* Behavioral tests for the three reconfiguration schemes: ΔLRU, EDF,
   ΔLRU-EDF (paper Sections 3.1.1-3.1.3). *)

open Rrs_core

let arr round color count = { Types.round; color; count }

let mk ?(delta = 2) ~delay arrivals = Instance.create ~delta ~delay ~arrivals ()

let run ?(n = 4) instance policy =
  Engine.run (Engine.config ~n ()) instance policy

(* count occurrences of each color in a cache assignment *)
let occurrences cache =
  let tbl = Hashtbl.create 8 in
  Array.iter
    (fun c ->
      if c <> Types.black then
        Hashtbl.replace tbl c (1 + Option.value ~default:0 (Hashtbl.find_opt tbl c)))
    cache;
  tbl

let test_take () =
  let take = Rrs_oracle.take in
  Alcotest.(check (list int)) "prefix" [ 1; 2 ] (take 2 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "whole list" [ 1; 2; 3 ] (take 9 [ 1; 2; 3 ]);
  Alcotest.(check (list int)) "zero" [] (take 0 [ 1; 2 ]);
  Alcotest.(check (list int)) "negative" [] (take (-3) [ 1; 2 ]);
  Alcotest.(check (list int)) "empty" [] (take 4 [])

let test_replication_invariant () =
  (* every cached color occupies exactly two locations, for all three
     algorithms, at the end of a busy run *)
  let i =
    mk ~delta:1 ~delay:[| 2; 2; 4; 4 |]
      [ arr 0 0 2; arr 0 1 2; arr 0 2 3; arr 0 3 3; arr 4 2 2 ]
  in
  List.iter
    (fun policy ->
      let r = run i policy in
      Hashtbl.iter
        (fun color count ->
          if count <> 2 then
            Alcotest.failf "color %d cached %d times (want 2)" color count)
        (occurrences r.final_cache))
    [ Delta_lru.policy; Edf_policy.policy; Lru_edf.policy ]

let test_never_eligible_never_cached () =
  (* fewer than delta jobs: the color never becomes eligible and is never
     cached (Lemma 3.1's mechanism) -> zero reconfiguration cost *)
  let i = mk ~delta:5 ~delay:[| 4 |] [ arr 0 0 2; arr 4 0 2 ] in
  List.iter
    (fun policy ->
      let r = run i policy in
      Alcotest.(check int) "no reconfig" 0 r.cost.reconfig;
      Alcotest.(check int) "all dropped" 4 r.dropped)
    [ Delta_lru.policy; Edf_policy.policy; Lru_edf.policy ]

let test_dlru_ignores_idleness () =
  (* ΔLRU's defect: it caches by recency even when the recent colors are
     idle.  Two short colors wrap every window and stay recent; the long
     color 2 has a huge pile but a stale timestamp.  With n=4 (two
     distinct slots) ΔLRU pins both shorts and starves the long color. *)
  let i =
    mk ~delta:2 ~delay:[| 4; 4; 64 |]
      (arr 0 2 64
      :: List.concat_map
           (fun w -> [ arr (w * 4) 0 2; arr (w * 4) 1 2 ])
           (List.init 16 Fun.id))
  in
  let r = run ~n:4 i Delta_lru.policy in
  (* the long color is never executed *)
  Alcotest.(check int) "long color starved" 0 r.executions_by_color.(2);
  Alcotest.(check int) "long pile dropped" 64 r.drops_by_color.(2)

let test_edf_uses_idle_capacity () =
  (* same workload: EDF executes the long color whenever shorts are idle *)
  let i =
    mk ~delta:2 ~delay:[| 4; 4; 64 |]
      (arr 0 2 64
      :: List.concat_map
           (fun w -> [ arr (w * 4) 0 2; arr (w * 4) 1 2 ])
           (List.init 16 Fun.id))
  in
  let r = run ~n:4 i Edf_policy.policy in
  Alcotest.(check bool) "long color served" true
    (r.executions_by_color.(2) > 32)

let test_lru_edf_balances () =
  (* ΔLRU-EDF with n=8 (2 LRU + 2 EDF distinct slots) serves both the
     recent shorts and the deadline-driven long color *)
  let i =
    mk ~delta:2 ~delay:[| 4; 4; 64 |]
      (arr 0 2 64
      :: List.concat_map
           (fun w -> [ arr (w * 4) 0 2; arr (w * 4) 1 2 ])
           (List.init 16 Fun.id))
  in
  let r = run ~n:8 i Lru_edf.policy in
  Alcotest.(check int) "no drops at all" 0 r.dropped

let test_edf_prefers_earliest_deadline () =
  (* two nonidle colors, one distinct slot (n=2): EDF must pick the one
     with the earlier deadline *)
  let i = mk ~delta:1 ~delay:[| 8; 2 |] [ arr 0 0 8; arr 0 1 2 ] in
  let r = run ~n:2 i Edf_policy.policy in
  (* color 1 (deadline 2) must be served before its deadline *)
  Alcotest.(check int) "urgent color executed" 2 r.executions_by_color.(1)

let test_mid_window_swap () =
  (* n=4: 2 distinct slots for 3 nonidle colors of 2 jobs each.  A cached
     color finishes its 2 jobs in one round (two copies), so the EDF part
     can swap in the third color mid-window and nothing need drop. *)
  let i =
    mk ~delta:1 ~delay:[| 2; 2; 2 |]
      [ arr 0 0 2; arr 0 1 2; arr 0 2 2; arr 2 0 2 ]
  in
  let r = run ~n:4 i Lru_edf.policy in
  Alcotest.(check int) "no drops thanks to the swap" 0 r.dropped;
  Alcotest.(check int) "all executed" 8 r.executed;
  (* serving 3 colors through 2 slots forces at least 3 recolorings of
     distinct slots (x2 replication) *)
  Alcotest.(check bool) "swap actually happened" true (r.reconfigurations >= 6)

let test_stable_assign_no_spurious_reconfig () =
  (* a color that stays desired must not move slots (no churn cost) *)
  let current = [| 3; 1; Types.black |] in
  let next = Policy.stable_assign ~current ~desired:[ 1; 5 ] in
  Alcotest.(check int) "1 kept in place" 1 next.(1);
  Alcotest.(check bool) "5 placed" true (Array.exists (( = ) 5) next);
  (* slot 0's occupant 3 is not desired: it is the eviction target *)
  Alcotest.(check int) "3 evicted for 5" 5 next.(0)

let test_stable_assign_errors () =
  (match
     Policy.stable_assign ~current:[| 0 |] ~desired:[ 1; 2 ]
   with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "oversized desired accepted");
  match Policy.stable_assign ~current:[| 0; 1 |] ~desired:[ 2; 2 ] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "duplicate desired accepted"

let test_replicate () =
  let full = Policy.replicate ~distinct:[| 4; Types.black |] ~n:4 in
  Alcotest.(check (list int)) "mirrored" [ 4; Types.black; 4; Types.black ]
    (Array.to_list full);
  match Policy.replicate ~distinct:[| 0 |] ~n:4 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "bad replication size accepted"

let test_n_validation () =
  let i = mk ~delay:[| 2 |] [] in
  (match Lru_edf.make i ~n:6 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "lru-edf must require n multiple of 4");
  (match Delta_lru.make i ~n:3 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "dlru must require even n");
  match Edf_policy.make_seq i ~n:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "seq-edf must require n >= 1"

let test_quotas () =
  Alcotest.(check int) "lru slots" 2 (Lru_edf.lru_slots ~n:8);
  Alcotest.(check int) "distinct capacity" 4 (Lru_edf.distinct_capacity ~n:8)

let test_seq_edf_full_capacity () =
  (* Seq-EDF uses all n slots for distinct colors (no replication) *)
  let i = mk ~delta:1 ~delay:[| 2; 2 |] [ arr 0 0 2; arr 0 1 2 ] in
  let r = run ~n:2 i Edf_policy.seq_policy in
  let occ = occurrences r.final_cache in
  Alcotest.(check int) "two distinct colors" 2 (Hashtbl.length occ);
  Alcotest.(check int) "no drops" 0 r.dropped

let test_ds_seq_edf_double_speed () =
  (* DS-Seq-EDF = Seq-EDF under a double-speed engine *)
  let i = mk ~delta:1 ~delay:[| 2 |] [ arr 0 0 4; arr 2 0 4 ] in
  let uni = Engine.run (Engine.config ~n:1 ()) i Edf_policy.seq_policy in
  let ds = Engine.run (Engine.config ~n:1 ~mini_rounds:2 ()) i Edf_policy.seq_policy in
  Alcotest.(check int) "uni-speed drops" 4 uni.dropped;
  Alcotest.(check int) "double-speed executes all" 0 ds.dropped

let () =
  Alcotest.run "policies"
    [
      ( "shared mechanics",
        [
          Alcotest.test_case "take" `Quick test_take;
          Alcotest.test_case "replication invariant" `Quick
            test_replication_invariant;
          Alcotest.test_case "sub-delta colors never cached" `Quick
            test_never_eligible_never_cached;
          Alcotest.test_case "stable_assign" `Quick
            test_stable_assign_no_spurious_reconfig;
          Alcotest.test_case "stable_assign errors" `Quick
            test_stable_assign_errors;
          Alcotest.test_case "replicate" `Quick test_replicate;
          Alcotest.test_case "n validation" `Quick test_n_validation;
          Alcotest.test_case "quotas" `Quick test_quotas;
        ] );
      ( "scheme contrasts",
        [
          Alcotest.test_case "dlru ignores idleness" `Quick
            test_dlru_ignores_idleness;
          Alcotest.test_case "edf uses idle capacity" `Quick
            test_edf_uses_idle_capacity;
          Alcotest.test_case "lru-edf balances" `Quick test_lru_edf_balances;
          Alcotest.test_case "edf earliest deadline" `Quick
            test_edf_prefers_earliest_deadline;
          Alcotest.test_case "mid-window swap" `Quick test_mid_window_swap;
        ] );
      ( "seq-edf",
        [
          Alcotest.test_case "full capacity" `Quick test_seq_edf_full_capacity;
          Alcotest.test_case "double speed" `Quick test_ds_seq_edf_double_speed;
        ] );
    ]
