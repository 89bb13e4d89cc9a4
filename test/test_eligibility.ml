(* Tests for the shared counter / eligibility / timestamp machinery
   (paper Section 3.1, "common aspects"). *)

open Rrs_core

let arr round color count = { Types.round; color; count }

(* Drive the machinery through a real engine run with a spy policy that
   can also decide what to cache (a constant distinct set). *)
let run_with_spy ?(cached = fun _ -> false) ~delta ~delay arrivals observe =
  let instance = Instance.create ~delta ~delay ~arrivals () in
  let elig = ref None in
  let factory (i : Instance.t) ~n =
    let e = Eligibility.create i in
    elig := Some e;
    {
      Policy.name = "spy";
      codec = None;
      reconfigure =
        (fun view ->
          Eligibility.begin_round e ~view ~in_cache:cached;
          observe view.round e;
          Array.make n Types.black);
    }
  in
  let cfg = Engine.config ~n:1 () in
  ignore (Engine.run cfg instance factory);
  Option.get !elig

(* The typed change feed driving Ranking.Index: every transition shows
   up, in a consistent order, and listeners observe post-mutation
   state. *)
let test_change_feed () =
  (* delta=2, delay=4, one uncached color: the round-0 batch of 2 wraps
     and makes it eligible; at the round-4 boundary its epoch closes
     (uncached), so it flips back to ineligible *)
  let instance =
    Instance.create ~delta:2 ~delay:[| 4 |] ~arrivals:[ arr 0 0 2 ] ()
  in
  let log = ref [] in
  let consistent = ref true in
  let factory (i : Instance.t) ~n =
    let e = Eligibility.create i in
    Eligibility.on_change e (fun change ->
        log := change :: !log;
        (* listeners run after the mutation *)
        match change with
        | Eligibility.Became_eligible c ->
            consistent := !consistent && Eligibility.is_eligible e c
        | Eligibility.Became_ineligible c ->
            consistent := !consistent && not (Eligibility.is_eligible e c)
        | _ -> ());
    {
      Policy.name = "spy";
      codec = None;
      reconfigure =
        (fun view ->
          Eligibility.begin_round e ~view ~in_cache:(fun _ -> false);
          Array.make n Types.black);
    }
  in
  ignore (Engine.run (Engine.config ~n:1 ()) instance factory);
  let changes = List.rev !log in
  let index_of change =
    let rec go i = function
      | [] -> Alcotest.failf "change not emitted"
      | c :: _ when c = change -> i
      | _ :: rest -> go (i + 1) rest
    in
    go 0 changes
  in
  Alcotest.(check bool) "post-mutation state" true !consistent;
  Alcotest.(check bool) "wrap precedes eligibility" true
    (index_of (Eligibility.Wrapped 0)
    < index_of (Eligibility.Became_eligible 0));
  Alcotest.(check bool) "eligible precedes epoch close" true
    (index_of (Eligibility.Became_eligible 0)
    < index_of (Eligibility.Became_ineligible 0));
  Alcotest.(check bool) "timestamp bumped at the boundary" true
    (index_of (Eligibility.Timestamp_bumped 0)
    < index_of (Eligibility.Became_ineligible 0));
  Alcotest.(check bool) "boundary moves the color deadline" true
    (List.mem (Eligibility.Deadline_moved 0) changes)

let test_counter_accumulates () =
  (* delta=5, batches of 2 at rounds 0,4,8: wrap at round 8 (2+2+2=6>=5) *)
  let log = ref [] in
  let e =
    run_with_spy ~delta:5 ~delay:[| 4 |]
      [ arr 0 0 2; arr 4 0 2; arr 8 0 2 ]
      (fun round e ->
        log := (round, Eligibility.counter e 0, Eligibility.is_eligible e 0) :: !log)
  in
  ignore e;
  let at r = List.assoc r (List.map (fun (r, c, el) -> (r, (c, el))) !log) in
  Alcotest.(check (pair int bool)) "round 0: cnt 2, ineligible" (2, false) (at 0);
  Alcotest.(check (pair int bool)) "round 4: cnt 4, ineligible" (4, false) (at 4);
  Alcotest.(check (pair int bool)) "round 8: wrapped to 1, eligible" (1, true) (at 8)

let test_wrap_resets_modulo () =
  (* a huge batch wraps once: cnt = count mod delta (observed mid-run,
     before the end-of-epoch reset at the color's next multiple) *)
  let observed = ref [] in
  let e =
    run_with_spy ~delta:4 ~delay:[| 8 |] [ arr 0 0 11 ] (fun round e ->
        observed :=
          (round, (Eligibility.counter e 0, Eligibility.is_eligible e 0))
          :: !observed)
  in
  Alcotest.(check (pair int bool))
    "round 0: cnt = 11 mod 4, eligible" (3, true) (List.assoc 0 !observed);
  Alcotest.(check int) "one wrap event" 1 (Eligibility.wrap_events_total e);
  (* at round 8 the color is uncached, so the epoch ends and cnt resets *)
  Alcotest.(check int) "end-of-epoch reset" 0 (Eligibility.counter e 0);
  Alcotest.(check bool) "ineligible at end" false (Eligibility.is_eligible e 0)

let test_ineligible_transition_out_of_cache () =
  (* eligible color not in cache turns ineligible at its next multiple *)
  let states = ref [] in
  let e =
    run_with_spy ~delta:2 ~delay:[| 4 |] [ arr 0 0 2 ] (fun round e ->
        states := (round, Eligibility.is_eligible e 0) :: !states)
  in
  Alcotest.(check bool) "eligible at round 0" true (List.assoc 0 !states);
  Alcotest.(check bool) "ineligible at round 4" false (List.assoc 4 !states);
  Alcotest.(check int) "counter reset" 0 (Eligibility.counter e 0);
  Alcotest.(check int) "one epoch ended" 1 (Eligibility.epochs_ended e 0)

let test_cached_color_stays_eligible () =
  let e =
    run_with_spy
      ~cached:(fun c -> c = 0)
      ~delta:2 ~delay:[| 4 |] [ arr 0 0 2 ]
      (fun _ _ -> ())
  in
  Alcotest.(check bool) "still eligible (cached)" true
    (Eligibility.is_eligible e 0);
  Alcotest.(check int) "no epoch end" 0 (Eligibility.epochs_ended e 0)

let test_timestamp_snapshots () =
  (* wrap at round 0; the timestamp becomes 0 only at the next multiple *)
  let ts = ref [] in
  let e =
    run_with_spy
      ~cached:(fun c -> c = 0)
      ~delta:2 ~delay:[| 4 |]
      [ arr 0 0 2; arr 8 0 2 ]
      (fun round e -> ts := (round, Eligibility.timestamp e 0) :: !ts)
  in
  ignore e;
  Alcotest.(check int) "round 0: no wrap visible" (-1) (List.assoc 0 !ts);
  Alcotest.(check int) "round 4: sees wrap@0" 0 (List.assoc 4 !ts);
  Alcotest.(check int) "round 8: still wrap@0" 0 (List.assoc 8 !ts);
  (* the wrap at round 8 becomes visible at round 12 *)
  Alcotest.(check int) "round 12: sees wrap@8" 8 (List.assoc 12 !ts)

let test_color_deadline_updates () =
  let dd = ref [] in
  ignore
    (run_with_spy ~delta:10 ~delay:[| 4 |] [ arr 0 0 1 ] (fun round e ->
         dd := (round, Eligibility.color_deadline e 0) :: !dd));
  Alcotest.(check int) "dd at round 0" 4 (List.assoc 0 !dd);
  Alcotest.(check int) "dd at round 2 unchanged" 4 (List.assoc 2 !dd);
  Alcotest.(check int) "dd at round 4" 8 (List.assoc 4 !dd)

let test_drop_classification () =
  (* jobs dropped before the color ever wraps are ineligible drops;
     delta=5 so the 3 jobs never make the color eligible *)
  let e =
    run_with_spy ~delta:5 ~delay:[| 2 |] [ arr 0 0 3 ] (fun _ _ -> ())
  in
  Alcotest.(check int) "ineligible drops" 3 (Eligibility.ineligible_drops e);
  Alcotest.(check int) "eligible drops" 0 (Eligibility.eligible_drops e);
  (* now delta=2: the batch wraps at round 0, so the drop at round 2 is
     an eligible drop *)
  let e2 =
    run_with_spy ~delta:2 ~delay:[| 2 |] [ arr 0 0 3 ] (fun _ _ -> ())
  in
  Alcotest.(check int) "eligible drops" 3 (Eligibility.eligible_drops e2);
  Alcotest.(check int) "ineligible drops" 0 (Eligibility.ineligible_drops e2)

let test_epochs_total_counts_active () =
  (* color 0 completes one epoch and starts another; color 1 never has
     arrivals and contributes no epoch *)
  let e =
    run_with_spy ~delta:2 ~delay:[| 4; 4 |]
      [ arr 0 0 2; arr 8 0 2 ]
      (fun _ _ -> ())
  in
  (* epoch 0 ends at round 4 (eligible, uncached); arrivals at round 8
     start an active epoch, which ends at round 12 *)
  Alcotest.(check int) "epochs ended" 2 (Eligibility.epochs_ended e 0);
  Alcotest.(check int) "total epochs" 2 (Eligibility.epochs_total e)

let test_eligible_colors_sorted () =
  let e =
    run_with_spy ~delta:1 ~delay:[| 2; 2; 2 |]
      [ arr 0 2 1; arr 0 0 1 ]
      (fun _ _ -> ())
  in
  (* delta=1: every batch wraps immediately; colors 0 and 2 eligible
     until their multiples pass (uncached -> ineligible at round 2) *)
  ignore e;
  let e2 =
    run_with_spy
      ~cached:(fun _ -> true)
      ~delta:1 ~delay:[| 2; 2; 2 |]
      [ arr 0 2 1; arr 0 0 1 ]
      (fun _ _ -> ())
  in
  Alcotest.(check (list int)) "sorted eligible" [ 0; 2 ]
    (Eligibility.eligible_colors e2)

let test_idempotent_within_round () =
  (* two mini-rounds must not double-process arrivals *)
  let instance = Instance.create ~delta:2 ~delay:[| 4 |] ~arrivals:[ arr 0 0 3 ] () in
  let elig = ref None in
  let factory (i : Instance.t) ~n =
    let e = Eligibility.create i in
    elig := Some e;
    {
      Policy.name = "spy";
      codec = None;
      reconfigure =
        (fun view ->
          Eligibility.begin_round e ~view ~in_cache:(fun _ -> false);
          Array.make n Types.black);
    }
  in
  let cfg = Engine.config ~n:1 ~mini_rounds:2 () in
  ignore (Engine.run cfg instance factory);
  let e = Option.get !elig in
  Alcotest.(check int) "single wrap despite two mini-rounds" 1
    (Eligibility.wrap_events_total e)

(* regression: listeners used to live in a list appended with [l @ [f]]
   (quadratic registration) and be iterated via [List.rev] per event
   (per-event allocation); they are now stored once in registration
   order — every event must still see all listeners, first-registered
   first *)
let test_listener_registration_order () =
  let instance =
    Instance.create ~delta:2 ~delay:[| 4; 4 |]
      ~arrivals:[ arr 0 0 4; arr 1 1 2 ]
      ()
  in
  let calls = ref [] in
  let factory (i : Instance.t) ~n =
    let e = Eligibility.create i in
    List.iter
      (fun tag ->
        Eligibility.on_timestamp_update e (fun color ts ->
            calls := (tag, color, ts) :: !calls);
        Eligibility.on_change e (fun _ -> calls := (tag, -1, -1) :: !calls))
      [ "first"; "second"; "third" ];
    {
      Policy.name = "spy";
      codec = None;
      reconfigure =
        (fun view ->
          Eligibility.begin_round e ~view ~in_cache:(fun _ -> false);
          Array.make n Types.black);
    }
  in
  ignore (Engine.run (Engine.config ~n:1 ()) instance factory);
  let events = List.rev !calls in
  Alcotest.(check bool) "listeners fired" true (events <> []);
  Alcotest.(check int) "all three saw every event" 0
    (List.length events mod 3);
  (* consecutive triples carry identical payloads in registration order *)
  let rec check = function
    | (("first", c1, t1) as _a)
      :: ("second", c2, t2)
      :: ("third", c3, t3)
      :: rest ->
        Alcotest.(check bool) "same payload across the triple" true
          (c1 = c2 && c2 = c3 && t1 = t2 && t2 = t3);
        check rest
    | [] -> ()
    | _ -> Alcotest.fail "listeners out of registration order"
  in
  check events

let () =
  Alcotest.run "eligibility"
    [
      ( "counters",
        [
          Alcotest.test_case "accumulation" `Quick test_counter_accumulates;
          Alcotest.test_case "change feed" `Quick test_change_feed;
          Alcotest.test_case "modulo wrap" `Quick test_wrap_resets_modulo;
        ] );
      ( "eligibility",
        [
          Alcotest.test_case "ineligible transition" `Quick
            test_ineligible_transition_out_of_cache;
          Alcotest.test_case "cached stays eligible" `Quick
            test_cached_color_stays_eligible;
          Alcotest.test_case "eligible_colors sorted" `Quick
            test_eligible_colors_sorted;
        ] );
      ( "timestamps",
        [
          Alcotest.test_case "snapshot at multiples" `Quick
            test_timestamp_snapshots;
          Alcotest.test_case "color deadline" `Quick test_color_deadline_updates;
        ] );
      ( "analysis counters",
        [
          Alcotest.test_case "drop classification" `Quick
            test_drop_classification;
          Alcotest.test_case "epoch counting" `Quick
            test_epochs_total_counts_active;
          Alcotest.test_case "mini-round idempotency" `Quick
            test_idempotent_within_round;
          Alcotest.test_case "listener registration order" `Quick
            test_listener_registration_order;
        ] );
    ]
