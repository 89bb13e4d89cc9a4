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
   up, in order, and the subscriber observes post-mutation state. *)
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
    Eligibility.on_change e (fun change c ->
        log := (change, c) :: !log;
        (* the subscriber runs after the mutation *)
        match change with
        | Eligibility.Became_eligible ->
            consistent := !consistent && Eligibility.is_eligible e c
        | Eligibility.Became_ineligible ->
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
  Alcotest.(check bool) "post-mutation state" true !consistent;
  (* the round-0 wrap makes it eligible; its round-4 boundary bumps the
     timestamp, then ends the epoch *)
  Alcotest.(check bool) "eligible, timestamp bumped, ineligible" true
    (List.rev !log
    = [
        (Eligibility.Became_eligible, 0);
        (Eligibility.Timestamp_bumped, 0);
        (Eligibility.Became_ineligible, 0);
      ])

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

(* The change feed has one subscriber: a later [on_change] replaces the
   earlier one, so a policy rebuilt over new state leaves no stale
   subscriber behind. *)
let test_one_change_subscriber () =
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
        Eligibility.on_change e (fun _ color -> calls := (tag, color) :: !calls))
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
  Alcotest.(check bool) "the subscriber saw changes" true (!calls <> []);
  Alcotest.(check bool) "only the last subscriber" true
    (List.for_all (fun (tag, _) -> tag = "third") !calls)

(* ---- the lazy boundaries against the eager reference -------------- *)

module Eager = Rrs_oracle.Eager

type step = {
  gap : int;  (** rounds skipped before this one *)
  arrivals : (int * int) list;
  drops : (int * int) list;  (** distinct colors *)
  cached : bool list;
  cut : bool;  (** save, compare and reload here *)
}

let step_gen ~num_colors =
  let open QCheck.Gen in
  let color = int_bound (num_colors - 1) in
  let* gap = frequency [ (9, return 0); (1, int_range 1 9) ] in
  let* arrivals = list_size (int_bound 4) (pair color (int_range 1 4)) in
  let* drops = list_size (int_bound 3) (pair color (int_range 1 5)) in
  let drops =
    List.sort_uniq (fun (a, _) (b, _) -> compare a b) drops
  in
  let* cached = list_repeat num_colors bool in
  let* cut = frequency [ (4, return false); (1, return true) ] in
  return { gap; arrivals; drops; cached; cut }

let scenario_gen =
  let open QCheck.Gen in
  let* num_colors = int_range 1 6 in
  let* delta = int_range 1 4 in
  let* delay = array_repeat num_colors (int_range 1 8) in
  let* start = frequency [ (2, return 0); (1, int_range 1 30) ] in
  let* steps = list_size (int_range 1 60) (step_gen ~num_colors) in
  return (delta, delay, start, steps)

let print_scenario (delta, delay, start, steps) =
  Printf.sprintf "delta=%d delay=[%s] start=%d rounds=%d" delta
    (String.concat ";" (Array.to_list (Array.map string_of_int delay)))
    start (List.length steps)

let wire_of save x =
  let w = Wire.writer () in
  save x w;
  Wire.contents w

(* Every round, for every color, the production Eligibility (heap of
   eligible colors, derived deadlines for the rest) must agree with the
   eager reference on every accessor; its change events must be the
   reference's; and at random cut points both must
   save the same bytes, and [save (load (save e)) = save e] — the run
   then continues on the reloaded copy. *)
let prop_lazy_matches_eager =
  QCheck.Test.make ~count:400 ~name:"lazy boundaries = eager reference"
    (QCheck.make ~print:print_scenario scenario_gen)
    (fun (delta, delay, start, steps) ->
      let num_colors = Array.length delay in
      let instance = Instance.create ~delta ~delay ~arrivals:[] () in
      let log = ref [] in
      let listen e = Eligibility.on_change e (fun k c -> log := (k, c) :: !log) in
      let e = ref (Eligibility.create instance) in
      listen !e;
      let r = Eager.create instance in
      let pending = Pending.create ~num_colors in
      let ok = ref true in
      let fail () = ok := false in
      let round = ref (start - 1) in
      List.iter
        (fun st ->
          round := !round + 1 + st.gap;
          let cached = Array.of_list st.cached in
          let in_cache c = cached.(c) in
          let view =
            {
              Policy.round = !round;
              mini_round = 0;
              arrivals = Batch.of_list st.arrivals;
              dropped = Batch.of_list st.drops;
              cache = [||];
              pending;
            }
          in
          log := [];
          Eligibility.begin_round !e ~view ~in_cache;
          Eager.begin_round r ~round:!round ~arrivals:st.arrivals
            ~dropped:st.drops ~in_cache;
          if List.rev !log <> Eager.changes r then fail ();
          for c = 0 to num_colors - 1 do
            if
              Eligibility.is_eligible !e c <> Eager.is_eligible r c
              || Eligibility.color_deadline !e c <> Eager.color_deadline r c
              || Eligibility.timestamp !e c <> Eager.timestamp r c
              || Eligibility.counter !e c <> Eager.counter r c
              || Eligibility.epochs_ended !e c <> Eager.epochs_ended r c
            then fail ()
          done;
          if
            Eligibility.epochs_total !e <> Eager.epochs_total r
            || Eligibility.wrap_events_total !e
               <> List.fold_left
                    (fun acc c -> acc + Eager.wrap_events r c)
                    0
                    (List.init num_colors Fun.id)
            || Eligibility.eligible_drops !e <> Eager.eligible_drops r
            || Eligibility.ineligible_drops !e <> Eager.ineligible_drops r
            || Eligibility.eligible_colors !e <> Eager.eligible_colors r
          then fail ();
          if st.cut then begin
            let bytes = wire_of Eligibility.save !e in
            if bytes <> wire_of Eager.save r then fail ();
            let copy = Eligibility.create instance in
            Eligibility.load copy
              (Wire.reader bytes ~pos:0 ~stop:(String.length bytes));
            if wire_of Eligibility.save copy <> bytes then fail ();
            listen copy;
            e := copy
          end)
        steps;
      !ok)

(* [load] refuses a state [save] cannot write: an ineligible color whose
   timestamp is not its last wrap, the invariant the derived deadlines
   rest on. *)
let test_load_refuses_off_wrap () =
  let instance = Instance.create ~delta:2 ~delay:[| 4 |] ~arrivals:[] () in
  (* last_round, epochs ended, eligible and ineligible drops, then one
     color: cnt, dd, flags (ineligible), last_wrap, timestamp, epochs
     ended, wraps *)
  let state ~timestamp =
    let w = Wire.writer () in
    Wire.add_ints w [| 5; 1; 0; 0; 0; 8; 0; 3; timestamp; 1; 1 |];
    Wire.contents w
  in
  let load bytes =
    Eligibility.load
      (Eligibility.create instance)
      (Wire.reader bytes ~pos:0 ~stop:(String.length bytes))
  in
  load (state ~timestamp:3);
  match load (state ~timestamp:(-1)) with
  | () -> Alcotest.fail "an ineligible color off its last wrap loaded"
  | exception Wire.Malformed _ -> ()

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
          Alcotest.test_case "one change subscriber" `Quick
            test_one_change_subscriber;
        ] );
      ( "lazy boundaries",
        [
          QCheck_alcotest.to_alcotest prop_lazy_matches_eager;
          Alcotest.test_case "load refuses a color off its wrap" `Quick
            test_load_refuses_off_wrap;
        ] );
    ]
