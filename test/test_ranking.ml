(* Direct tests for the EDF ranking (the Rrs_oracle list-sort reference
   and the incremental Ranking.Index) and the cache-state helper — the
   internal modules every policy is built on. *)

open Rrs_core

let arr round color count = { Types.round; color; count }

(* build an eligibility state + pending with prescribed contents *)
let setup ~delta ~delay arrivals =
  let instance = Instance.create ~delta ~delay ~arrivals () in
  let elig = Eligibility.create instance in
  let pending = Pending.create ~num_colors:instance.num_colors in
  (instance, elig, pending)

let begin_round elig pending ~round ~arrivals ~cached =
  let view =
    {
      Policy.round;
      mini_round = 0;
      arrivals = Batch.of_list arrivals;
      dropped = Batch.create ();
      cache = [||];
      pending;
    }
  in
  Eligibility.begin_round elig ~view ~in_cache:cached

let test_nonidle_before_idle () =
  let instance, elig, pending = setup ~delta:1 ~delay:[| 4; 4 |] [ arr 0 0 1; arr 0 1 1 ] in
  ignore instance;
  (* both eligible; only color 1 has pending work *)
  begin_round elig pending ~round:0 ~arrivals:[ (0, 1); (1, 1) ]
    ~cached:(fun _ -> true);
  Pending.add pending 1 ~deadline:4 ~count:1;
  let ranked =
    Rrs_oracle.ranked_eligible elig pending ~delay:[| 4; 4 |]
      ~exclude:(fun _ -> false)
  in
  Alcotest.(check (list int)) "nonidle first" [ 1; 0 ] (List.map fst ranked);
  let key1 = List.assoc 1 ranked and key0 = List.assoc 0 ranked in
  Alcotest.(check bool) "key classes" true
    (Ranking.key_klass key1 = 0 && Ranking.key_klass key0 = 1)

let test_deadline_order () =
  let _, elig, pending =
    setup ~delta:1 ~delay:[| 8; 8 |] [ arr 0 0 1; arr 0 1 1 ]
  in
  begin_round elig pending ~round:0 ~arrivals:[ (0, 1); (1, 1) ]
    ~cached:(fun _ -> true);
  (* color 1's pending job has the earlier deadline *)
  Pending.add pending 0 ~deadline:8 ~count:1;
  Pending.add pending 1 ~deadline:5 ~count:1;
  let ranked =
    Rrs_oracle.ranked_eligible elig pending ~delay:[| 8; 8 |]
      ~exclude:(fun _ -> false)
  in
  Alcotest.(check (list int)) "earlier deadline first" [ 1; 0 ]
    (List.map fst ranked)

let test_delay_breaks_ties () =
  let _, elig, pending =
    setup ~delta:1 ~delay:[| 8; 4 |] [ arr 0 0 1; arr 0 1 1 ]
  in
  begin_round elig pending ~round:0 ~arrivals:[ (0, 1); (1, 1) ]
    ~cached:(fun _ -> true);
  (* same deadline; color 1 has the smaller delay bound and wins *)
  Pending.add pending 0 ~deadline:4 ~count:1;
  Pending.add pending 1 ~deadline:4 ~count:1;
  let ranked =
    Rrs_oracle.ranked_eligible elig pending ~delay:[| 8; 4 |]
      ~exclude:(fun _ -> false)
  in
  Alcotest.(check (list int)) "smaller delay bound first" [ 1; 0 ]
    (List.map fst ranked)

let test_ineligible_ranks_worst () =
  let _, elig, pending = setup ~delta:5 ~delay:[| 4; 4 |] [ arr 0 0 9; arr 0 1 1 ] in
  begin_round elig pending ~round:0 ~arrivals:[ (0, 9); (1, 1) ]
    ~cached:(fun _ -> true);
  (* color 0 wrapped (9 >= 5); color 1 did not *)
  let k0 = Ranking.key_of_color elig pending ~delay:[| 4; 4 |] 0 in
  let k1 = Ranking.key_of_color elig pending ~delay:[| 4; 4 |] 1 in
  Alcotest.(check bool) "eligible before ineligible" true
    (Ranking.compare k0 k1 < 0);
  (* ineligible colors are excluded from ranked_eligible *)
  let ranked =
    Rrs_oracle.ranked_eligible elig pending ~delay:[| 4; 4 |]
      ~exclude:(fun _ -> false)
  in
  Alcotest.(check (list int)) "only eligible" [ 0 ] (List.map fst ranked)

let test_exclude () =
  let _, elig, pending =
    setup ~delta:1 ~delay:[| 4; 4; 4 |] [ arr 0 0 1; arr 0 1 1; arr 0 2 1 ]
  in
  begin_round elig pending ~round:0 ~arrivals:[ (0, 1); (1, 1); (2, 1) ]
    ~cached:(fun _ -> true);
  let ranked =
    Rrs_oracle.ranked_eligible elig pending ~delay:[| 4; 4; 4 |]
      ~exclude:(fun c -> c = 1)
  in
  Alcotest.(check (list int)) "excluded" [ 0; 2 ] (List.map fst ranked)

let test_timestamp_order () =
  let _, elig, pending =
    setup ~delta:1 ~delay:[| 2; 2; 2 |]
      [ arr 0 0 1; arr 0 1 1; arr 2 2 1 ]
  in
  begin_round elig pending ~round:0 ~arrivals:[ (0, 1); (1, 1) ]
    ~cached:(fun _ -> true);
  begin_round elig pending ~round:1 ~arrivals:[] ~cached:(fun _ -> true);
  begin_round elig pending ~round:2 ~arrivals:[ (2, 1) ] ~cached:(fun _ -> true);
  begin_round elig pending ~round:3 ~arrivals:[] ~cached:(fun _ -> true);
  begin_round elig pending ~round:4 ~arrivals:[] ~cached:(fun _ -> true);
  (* colors 0,1 wrapped at round 0 (timestamp 0 after round 2); color 2
     wrapped at round 2 (timestamp 2 after round 4) *)
  Alcotest.(check (list int)) "most recent first, ties by id" [ 2; 0; 1 ]
    (Rrs_oracle.timestamp_order elig [ 0; 1; 2 ])

(* Cache_state *)

let test_cache_state_mechanics () =
  let cs = Cache_state.create ~num_colors:6 ~distinct_slots:3 in
  Alcotest.(check (list int)) "starts empty" [] (Cache_state.cached_colors cs);
  Cache_state.assign cs ~desired:[ 4; 1 ];
  Alcotest.(check bool) "mem 4" true (Cache_state.mem cs 4);
  Alcotest.(check bool) "not mem 0" false (Cache_state.mem cs 0);
  Alcotest.(check (list int)) "sorted colors" [ 1; 4 ]
    (Cache_state.cached_colors cs);
  (* stability: 1 keeps its slot across reassignments *)
  let before = Cache_state.distinct cs in
  Cache_state.assign cs ~desired:[ 1; 5; 2 ];
  let after = Cache_state.distinct cs in
  let slot_of arr c =
    let found = ref (-1) in
    Array.iteri (fun i x -> if x = c then found := i) arr;
    !found
  in
  Alcotest.(check int) "1 kept in place" (slot_of before 1) (slot_of after 1);
  Alcotest.(check bool) "4 evicted" false (Cache_state.mem cs 4);
  (* replication doubles the assignment *)
  let full = Cache_state.to_assignment cs ~replicated:true in
  Alcotest.(check int) "replicated length" 6 (Array.length full);
  Array.iteri
    (fun i c -> Alcotest.(check int) "mirror" c full.(i + 3))
    (Array.sub full 0 3);
  let flat = Cache_state.to_assignment cs ~replicated:false in
  Alcotest.(check int) "flat length" 3 (Array.length flat)

let prop_stable_assign_sound =
  let open QCheck in
  Test.make ~count:300 ~name:"stable_assign: desired placed, stayers fixed"
    (pair
       (array_of_size (Gen.int_range 1 6) (int_range (-1) 9))
       (list_of_size (Gen.int_range 0 6) (int_range 0 9)))
    (fun (current, desired_raw) ->
      let desired = List.sort_uniq compare desired_raw in
      assume (List.length desired <= Array.length current);
      (* current must be duplicate-free apart from black *)
      let non_black = List.filter (( <> ) (-1)) (Array.to_list current) in
      assume (List.length non_black = List.length (List.sort_uniq compare non_black));
      let result = Policy.stable_assign ~current ~desired in
      (* every desired color appears exactly once *)
      List.for_all
        (fun c ->
          Array.to_list result |> List.filter (( = ) c) |> List.length = 1)
        desired
      && (* colors already in place stayed in place *)
      Array.for_all Fun.id
        (Array.mapi
           (fun i c -> if List.mem c desired then result.(i) = c else true)
           current))

(* Ranking.Index vs the list-sort oracle *)

(* The whole index in rank / recency order, read through the public
   scratch-buffer queries. *)
let ranked_all idx =
  let k = Ranking.Index.eligible_count idx in
  let out = Array.make (max 1 k) 0 in
  let n = Ranking.Index.ranked_prefix_into idx ~k ~out in
  List.init n (fun i -> (out.(i), Ranking.Index.rank_key idx out.(i)))

let recency_all idx =
  let k = Ranking.Index.eligible_count idx in
  let out = Array.make (max 1 k) 0 in
  let n = Ranking.Index.recency_prefix_into idx ~k ~out in
  List.init n (fun i -> out.(i))

(* A policy that, every round, compares the delta-maintained index
   against a from-scratch re-sort of the same state — the rank order
   over all nonidle eligible colors (the oracle's klass-0 prefix) and
   the recency order over all eligible colors, not just a prefix —
   then acts like ΔLRU so the run visits realistic cache
   configurations. *)
let index_check_policy (instance : Instance.t) ~n =
  let elig = Eligibility.create instance in
  let cache =
    Cache_state.create ~num_colors:instance.num_colors
      ~distinct_slots:(n / 2)
  in
  let index = Ranking.Index.lazily elig ~delay:instance.delay in
  let mismatches = ref 0 in
  let reconfigure (view : Policy.view) =
    Eligibility.begin_round elig ~view ~in_cache:(Cache_state.mem cache);
    let idx = index view.pending in
    let oracle_rank =
      Rrs_oracle.ranked_eligible elig view.pending ~delay:instance.delay
        ~exclude:(fun _ -> false)
    in
    let nonidle = List.filter (fun (_, key) -> Ranking.key_klass key = 0) in
    if ranked_all idx <> nonidle oracle_rank then incr mismatches;
    let oracle_recency =
      Rrs_oracle.timestamp_order elig (Eligibility.eligible_colors elig)
    in
    if recency_all idx <> oracle_recency then incr mismatches;
    if Ranking.Index.eligible_count idx <> List.length oracle_rank then
      incr mismatches;
    Cache_state.assign cache ~desired:(Rrs_oracle.take (n / 2) oracle_recency);
    Cache_state.to_assignment cache ~replicated:true
  in
  (mismatches, { Policy.name = "index-check"; reconfigure; codec = None })

let drive_index_check instance =
  let mismatches, policy = index_check_policy instance ~n:8 in
  ignore (Engine.run_policy (Engine.config ~n:8 ()) instance policy);
  !mismatches

let test_index_matches_oracle () =
  List.iter
    (fun (id, seed) ->
      let f = Option.get (Rrs_workload.Families.find id) in
      Alcotest.(check int)
        (Printf.sprintf "%s-s%d mismatches" id seed)
        0
        (drive_index_check (f.build ~seed)))
    [ ("uniform", 1); ("bursty", 1); ("flash-crowd", 1); ("unbatched", 1) ]

let prop_index_matches_oracle =
  let gen =
    let open QCheck.Gen in
    let* num_colors = int_range 1 6 in
    let* delta = int_range 1 3 in
    let* delay = array_size (return num_colors) (int_range 1 12) in
    let* arrivals =
      list_size (int_range 0 40)
        (let* round = int_range 0 30 in
         let* color = int_range 0 (num_colors - 1) in
         let* count = int_range 1 5 in
         return { Types.round; color; count })
    in
    return (Instance.create ~delta ~delay ~arrivals ())
  in
  QCheck.Test.make ~count:100 ~name:"index = oracle after every round"
    (QCheck.make gen ~print:(fun i -> Format.asprintf "%a" Instance.pp_full i))
    (fun instance -> drive_index_check instance = 0)

(* ------------------------------------------------------------------ *)
(* Packed keys                                                         *)
(* ------------------------------------------------------------------ *)

(* the load-bearing property of the flat hot path: native [<] on packed
   keys is exactly the lexicographic order on the unpacked tuples *)
let packed_field_gen =
  let open QCheck.Gen in
  let* klass = int_range 0 3 in
  let* deadline = int_range 0 (Packed.max_deadline - 1) in
  let* delay = int_range 0 (Packed.max_delay - 1) in
  let* color = int_range 0 (Packed.max_colors - 1) in
  return (klass, deadline, delay, color)

let prop_packed_key_is_lex_order =
  QCheck.Test.make ~count:1000 ~name:"packed key compare = tuple compare"
    (QCheck.make QCheck.Gen.(pair packed_field_gen packed_field_gen))
    (fun ((ka, da, ya, ca), (kb, db, yb, cb)) ->
      let a = Packed.pack_key ~klass:ka ~deadline:da ~delay:ya ~color:ca in
      let b = Packed.pack_key ~klass:kb ~deadline:db ~delay:yb ~color:cb in
      compare a b = compare (ka, da, ya, ca) (kb, db, yb, cb)
      && Packed.key_klass a = ka
      && Packed.key_deadline a = da
      && Packed.key_delay a = ya
      && Packed.key_color a = ca)

let prop_packed_recency_order =
  QCheck.Test.make ~count:1000 ~name:"packed recency = (-ts, color) order"
    (QCheck.make
       QCheck.Gen.(
         pair
           (pair (int_range (-1) 100000) (int_range 0 (Packed.max_colors - 1)))
           (pair (int_range (-1) 100000) (int_range 0 (Packed.max_colors - 1)))))
    (fun ((ta, ca), (tb, cb)) ->
      let a = Packed.pack_recency ~timestamp:ta ~color:ca in
      let b = Packed.pack_recency ~timestamp:tb ~color:cb in
      compare a b = compare (-ta, ca) (-tb, cb)
      && Packed.recency_timestamp a = ta
      && Packed.recency_color a = ca)

let test_packed_overflow_guards () =
  let ok ~klass ~deadline ~delay ~color =
    ignore (Packed.pack_key ~klass ~deadline ~delay ~color)
  in
  (* the exact field boundaries round-trip *)
  let top =
    Packed.pack_key ~klass:3 ~deadline:(Packed.max_deadline - 1)
      ~delay:(Packed.max_delay - 1) ~color:(Packed.max_colors - 1)
  in
  Alcotest.(check int) "top klass" 3 (Packed.key_klass top);
  Alcotest.(check int) "top deadline" (Packed.max_deadline - 1)
    (Packed.key_deadline top);
  Alcotest.(check int) "top delay" (Packed.max_delay - 1)
    (Packed.key_delay top);
  Alcotest.(check int) "top color" (Packed.max_colors - 1)
    (Packed.key_color top);
  Alcotest.(check bool) "packed values stay non-negative" true (top >= 0);
  (* one past each field raises *)
  Alcotest.check_raises "klass overflow"
    (Invalid_argument "Packed.pack_key: klass") (fun () ->
      ok ~klass:4 ~deadline:0 ~delay:0 ~color:0);
  Alcotest.check_raises "deadline overflow"
    (Invalid_argument "Packed.pack_key: deadline overflow") (fun () ->
      ok ~klass:0 ~deadline:Packed.max_deadline ~delay:0 ~color:0);
  Alcotest.check_raises "delay overflow"
    (Invalid_argument "Packed.pack_key: delay overflow") (fun () ->
      ok ~klass:0 ~deadline:0 ~delay:Packed.max_delay ~color:0);
  Alcotest.check_raises "color overflow"
    (Invalid_argument "Packed: color out of range") (fun () ->
      ok ~klass:0 ~deadline:0 ~delay:0 ~color:Packed.max_colors);
  Alcotest.check_raises "negative delay"
    (Invalid_argument "Packed.pack_key: delay overflow") (fun () ->
      ok ~klass:0 ~deadline:0 ~delay:(-1) ~color:0);
  Alcotest.check_raises "recency timestamp underflow"
    (Invalid_argument "Packed.pack_recency: timestamp overflow") (fun () ->
      ignore (Packed.pack_recency ~timestamp:(-2) ~color:0));
  Alcotest.check_raises "pair value overflow"
    (Invalid_argument "Packed.pack_pair: value overflow") (fun () ->
      ignore (Packed.pack_pair ~value:Packed.max_pair_value ~color:0))

(* an index refuses instances whose delay bounds don't fit the field *)
let test_index_rejects_oversized_delay () =
  let delay = [| 4; Packed.max_delay |] in
  let instance =
    Instance.create ~delta:1 ~delay ~arrivals:[ arr 0 0 1 ] ()
  in
  let elig = Eligibility.create instance in
  Alcotest.check_raises "index build rejects"
    (Invalid_argument "Ranking.Index: delay bound exceeds the packed field")
    (fun () ->
      let pending = Pending.create ~num_colors:2 in
      ignore (Ranking.Index.lazily elig ~delay pending))

let () =
  Alcotest.run "ranking"
    [
      ( "edf ranking",
        [
          Alcotest.test_case "nonidle first" `Quick test_nonidle_before_idle;
          Alcotest.test_case "deadline order" `Quick test_deadline_order;
          Alcotest.test_case "delay tie-break" `Quick test_delay_breaks_ties;
          Alcotest.test_case "ineligible worst" `Quick
            test_ineligible_ranks_worst;
          Alcotest.test_case "exclude" `Quick test_exclude;
          Alcotest.test_case "timestamp order" `Quick test_timestamp_order;
        ] );
      ( "cache state",
        [
          Alcotest.test_case "mechanics" `Quick test_cache_state_mechanics;
          QCheck_alcotest.to_alcotest prop_stable_assign_sound;
        ] );
      ( "incremental index",
        [
          Alcotest.test_case "families match oracle" `Quick
            test_index_matches_oracle;
          QCheck_alcotest.to_alcotest prop_index_matches_oracle;
        ] );
      ( "packed keys",
        [
          QCheck_alcotest.to_alcotest prop_packed_key_is_lex_order;
          QCheck_alcotest.to_alcotest prop_packed_recency_order;
          Alcotest.test_case "overflow guards" `Quick
            test_packed_overflow_guards;
          Alcotest.test_case "index rejects oversized delay" `Quick
            test_index_rejects_oversized_delay;
        ] );
    ]
