(* The robustness layer: supervisor semantics (retry, timeout, typed
   failures), the fault-injection plane (determinism, scoping, domain
   isolation), watchdog invariant detection on synthetic streams,
   crash-safe artifact writing, torn-tail tolerant reading, and the
   supervised experiment sweep end to end. *)

open Rrs_robust
module Fault = Rrs_fault
module Sink = Rrs_obs.Sink
module Event = Rrs_obs.Event
module Run_summary = Rrs_obs.Run_summary

exception Boom of int

(* a supervisor policy that never touches the wall clock: time is a
   counter and sleeps are recorded *)
let test_clock () =
  let now = ref 0.0 in
  let sleeps = ref [] in
  let clock =
    {
      Supervisor.now = (fun () -> !now);
      sleep =
        (fun s ->
          sleeps := s :: !sleeps;
          now := !now +. s);
    }
  in
  (clock, sleeps)

(* ------------------------------------------------------------------ *)
(* supervisor                                                          *)
(* ------------------------------------------------------------------ *)

let test_supervisor_ok () =
  match Supervisor.run ~name:"ok" (fun () -> 42) with
  | Ok v -> Alcotest.(check int) "value" 42 v
  | Error f -> Alcotest.failf "unexpected failure: %a" Supervisor.pp_failure f

let test_supervisor_fatal () =
  match Supervisor.run ~name:"boom" (fun () -> raise (Boom 7)) with
  | Ok _ -> Alcotest.fail "failure not captured"
  | Error f ->
      Alcotest.(check string) "name" "boom" f.name;
      Alcotest.(check int) "attempts" 1 f.attempts;
      Alcotest.(check string) "phase" "exception" f.phase;
      Alcotest.(check bool) "fatal" true (f.classified = Supervisor.Fatal);
      Alcotest.(check bool) "exn kept" true (f.exn = Boom 7)

let retry_policy ?(retries = 3) ?(seed = 0) clock =
  {
    Supervisor.default with
    retries;
    seed;
    backoff = 0.05;
    backoff_factor = 2.0;
    jitter = 0.5;
    classify = (fun _ -> Supervisor.Transient);
    clock;
  }

let test_supervisor_retries_until_success () =
  let clock, sleeps = test_clock () in
  let calls = ref 0 in
  let thunk () =
    incr calls;
    if !calls < 3 then raise (Boom !calls) else "done"
  in
  (match Supervisor.run ~policy:(retry_policy clock) ~name:"flaky" thunk with
  | Ok v -> Alcotest.(check string) "value" "done" v
  | Error f -> Alcotest.failf "should recover: %a" Supervisor.pp_failure f);
  Alcotest.(check int) "three attempts" 3 !calls;
  Alcotest.(check int) "two backoff sleeps" 2 (List.length !sleeps);
  (* exponential base: first delay in [0.05, 0.075), second doubled *)
  (match List.rev !sleeps with
  | [ d1; d2 ] ->
      Alcotest.(check bool) "d1 in band" true (d1 >= 0.05 && d1 < 0.075);
      Alcotest.(check bool) "d2 in band" true (d2 >= 0.1 && d2 < 0.15)
  | _ -> Alcotest.fail "expected two delays");
  (* the jittered delay sequence is a pure function of the seed *)
  let rerun () =
    let clock, sleeps = test_clock () in
    let calls = ref 0 in
    ignore
      (Supervisor.run ~policy:(retry_policy clock) ~name:"flaky" (fun () ->
           incr calls;
           if !calls < 3 then raise (Boom !calls) else "done"));
    List.rev !sleeps
  in
  Alcotest.(check (list (float 0.0))) "deterministic delays" (rerun ()) (rerun ())

let test_supervisor_exhausts_retries () =
  let clock, _ = test_clock () in
  match
    Supervisor.run
      ~policy:(retry_policy ~retries:2 clock)
      ~name:"hopeless"
      (fun () -> raise (Boom 0))
  with
  | Ok _ -> Alcotest.fail "cannot succeed"
  | Error f ->
      Alcotest.(check int) "retries + 1 attempts" 3 f.attempts;
      Alcotest.(check bool) "transient" true
        (f.classified = Supervisor.Transient)

let test_supervisor_timeout () =
  let stop = Atomic.make false in
  let policy = { Supervisor.default with timeout = Some 0.05 } in
  let result =
    Supervisor.run ~policy ~name:"spin" (fun () ->
        while not (Atomic.get stop) do
          Domain.cpu_relax ()
        done)
  in
  (* let the abandoned attempt domain terminate *)
  Atomic.set stop true;
  match result with
  | Ok () -> Alcotest.fail "spin cannot finish before the deadline"
  | Error f ->
      Alcotest.(check string) "phase" "timeout" f.phase;
      (match f.exn with
      | Supervisor.Timed_out { name; seconds } ->
          Alcotest.(check string) "name" "spin" name;
          Alcotest.(check (float 1e-9)) "seconds" 0.05 seconds
      | e -> Alcotest.failf "wrong exn: %s" (Printexc.to_string e));
      Alcotest.(check bool) "timeouts are transient" true
        (f.classified = Supervisor.Transient)

let test_supervisor_skipped () =
  let f = Supervisor.skipped ~name:"later" in
  Alcotest.(check string) "phase" "skipped" f.phase;
  Alcotest.(check int) "attempts" 0 f.attempts;
  let rendered = Format.asprintf "%a" Supervisor.pp_failure f in
  Alcotest.(check bool) "mentions skip" true
    (String.length rendered > 0
    && String.starts_with ~prefix:"later: skipped" rendered)

let test_classify_default () =
  let c = Supervisor.classify_default in
  Alcotest.(check bool) "timeout transient" true
    (c (Supervisor.Timed_out { name = "x"; seconds = 1.0 })
    = Supervisor.Transient);
  Alcotest.(check bool) "transient injection" true
    (c (Rrs_fault.Injected { point = "p"; hit = 1; transient = true })
    = Supervisor.Transient);
  Alcotest.(check bool) "fatal injection" true
    (c (Rrs_fault.Injected { point = "p"; hit = 1; transient = false })
    = Supervisor.Fatal);
  Alcotest.(check bool) "other exns fatal" true (c (Boom 1) = Supervisor.Fatal)

(* ------------------------------------------------------------------ *)
(* fault plane                                                         *)
(* ------------------------------------------------------------------ *)

let test_fault_inactive_noop () =
  Alcotest.(check bool) "inactive" false (Fault.active ());
  Fault.probe "anything" (* must be a silent no-op *)

let test_fault_nth_fires_once () =
  let plan = Fault.plan [ Fault.fail_on "p" (Fault.Nth 3) ] in
  let hits = ref 0 in
  Fault.with_plan plan (fun () ->
      Alcotest.(check bool) "active" true (Fault.active ());
      try
        for _ = 1 to 10 do
          Fault.probe "p";
          incr hits
        done;
        Alcotest.fail "third probe must raise"
      with Fault.Injected { point; hit; transient } ->
        Alcotest.(check string) "point" "p" point;
        Alcotest.(check int) "hit" 3 hit;
        Alcotest.(check bool) "default fatal" false transient;
        (* the Nth trigger is exact: later hits pass *)
        for _ = 1 to 10 do
          Fault.probe "p"
        done);
  Alcotest.(check int) "two clean hits before" 2 !hits;
  Alcotest.(check (list (pair string int))) "hits" [ ("p", 13) ] (Fault.hits plan);
  Alcotest.(check (list (pair string int)))
    "injected once"
    [ ("p", 1) ]
    (Fault.injected plan);
  Alcotest.(check bool) "scope restored" false (Fault.active ())

let test_fault_every () =
  let plan = Fault.plan [ Fault.fail_on "p" (Fault.Every 4) ] in
  let fired = ref 0 in
  Fault.with_plan plan (fun () ->
      for _ = 1 to 12 do
        try Fault.probe "p" with Fault.Injected _ -> incr fired
      done);
  Alcotest.(check int) "every 4th of 12" 3 !fired

let test_fault_prob_deterministic () =
  let count seed =
    let plan = Fault.plan ~seed [ Fault.fail_on "p" (Fault.Prob 0.3) ] in
    let fired = ref 0 in
    Fault.with_plan plan (fun () ->
        for _ = 1 to 1000 do
          try Fault.probe "p" with Fault.Injected _ -> incr fired
        done);
    !fired
  in
  let a = count 42 and b = count 42 in
  Alcotest.(check int) "same seed, same firings" a b;
  Alcotest.(check bool) "plausible rate" true (a > 200 && a < 400);
  Alcotest.(check bool) "seeds decorrelate" true (count 43 <> a || count 44 <> a)

let test_fault_delay_uses_plan_sleep () =
  let slept = ref [] in
  let plan =
    Fault.plan
      ~sleep:(fun s -> slept := s :: !slept)
      [ Fault.delay_on "p" (Fault.Every 2) ~seconds:0.25 ]
  in
  Fault.with_plan plan (fun () ->
      for _ = 1 to 4 do
        Fault.probe "p"
      done);
  Alcotest.(check (list (float 0.0))) "sleeps" [ 0.25; 0.25 ] !slept;
  Alcotest.(check (list (pair string int)))
    "delays count as firings"
    [ ("p", 2) ]
    (Fault.injected plan)

let test_fault_scope_nests_and_restores () =
  let outer = Fault.plan [ Fault.fail_on "a" (Fault.Nth 1) ] in
  let inner = Fault.plan [ Fault.fail_on "b" (Fault.Nth 1) ] in
  Fault.with_plan outer (fun () ->
      Fault.with_plan inner (fun () ->
          (* inner scope: "a" has no rule *)
          Fault.probe "a";
          try
            Fault.probe "b";
            Alcotest.fail "inner rule must fire"
          with Fault.Injected { point; _ } ->
            Alcotest.(check string) "inner" "b" point);
      (* outer scope restored *)
      try
        Fault.probe "a";
        Alcotest.fail "outer rule must fire"
      with Fault.Injected { point; _ } ->
        Alcotest.(check string) "outer" "a" point);
  Alcotest.(check bool) "fully unwound" false (Fault.active ())

let test_fault_domains_isolated () =
  (* Nth 1 per-domain: every spawned domain gets its own counter, so
     each one's first probe fires — 3 independent injections, exact
     shared totals *)
  let plan = Fault.plan [ Fault.fail_on "p" (Fault.Nth 1) ] in
  Fault.with_plan plan (fun () ->
      let worker () =
        match Fault.probe "p" with
        | () -> false
        | exception Fault.Injected { hit = 1; _ } -> true
        | exception Fault.Injected _ -> false
      in
      let d1 = Domain.spawn worker and d2 = Domain.spawn worker in
      let here = worker () in
      Alcotest.(check (list bool))
        "each domain's first hit fires"
        [ true; true; true ]
        [ here; Domain.join d1; Domain.join d2 ]);
  Alcotest.(check (list (pair string int)))
    "aggregated totals"
    [ ("p", 3) ]
    (Fault.injected plan)

let test_fault_validation () =
  let invalid rules =
    match Fault.plan rules with
    | exception Invalid_argument _ -> ()
    | _ -> Alcotest.fail "plan must reject the rule"
  in
  invalid [ Fault.fail_on "p" (Fault.Nth 0) ];
  invalid [ Fault.fail_on "p" (Fault.Every 0) ];
  invalid [ Fault.fail_on "p" (Fault.Prob 1.5) ];
  invalid [ Fault.fail_on "p" (Fault.Prob (-0.1)) ]

(* ------------------------------------------------------------------ *)
(* watchdog                                                            *)
(* ------------------------------------------------------------------ *)

let feed ?(policy = Watchdog.Record) ~delta events =
  let wd = Watchdog.create ~policy ~delta () in
  List.iter (Watchdog.observe wd) events;
  Watchdog.finish wd;
  wd

let test_watchdog_clean_stream () =
  let wd =
    feed ~delta:2
      [
        Event.Epoch_open { round = 0; color = 0 };
        Event.Arrival { round = 0; color = 0; count = 2 };
        Event.Counter_wrap { round = 0; color = 0; wraps = 1 };
        Event.Credit { round = 0; color = 0; amount = 2 };
        Event.Reconfigure
          {
            round = 0;
            mini_round = 0;
            resource = 0;
            from_color = Rrs_core.Types.black;
            to_color = 0;
          };
        Event.Execute { round = 0; mini_round = 0; resource = 0; color = 0 };
        Event.Epoch_close { round = 4; color = 0; epochs_ended = 1 };
        Event.Drop { round = 5; color = 0; count = 1 };
      ]
  in
  Alcotest.(check bool) "ok" true (Watchdog.ok wd);
  Alcotest.(check int) "events seen" 8 (Watchdog.events_seen wd)

let expect_violation name invariant events ~delta =
  let wd = feed ~delta events in
  match Watchdog.violations wd with
  | [] -> Alcotest.failf "%s: nothing flagged" name
  | v :: _ ->
      Alcotest.(check string) (name ^ ": invariant") invariant v.invariant

let test_watchdog_violations () =
  expect_violation "rounds go backwards" "round_monotonic" ~delta:2
    [
      Event.Mini_round { round = 5; mini_round = 0 };
      Event.Mini_round { round = 3; mini_round = 0 };
    ];
  expect_violation "execute without configuration" "execute_color" ~delta:2
    [ Event.Execute { round = 0; mini_round = 0; resource = 0; color = 1 } ];
  expect_violation "reconfigure from wrong color" "cache_consistency" ~delta:2
    [
      Event.Reconfigure
        { round = 0; mini_round = 0; resource = 0; from_color = 3; to_color = 1 };
    ];
  expect_violation "self reconfigure" "self_reconfigure" ~delta:2
    [
      Event.Reconfigure
        { round = 0; mini_round = 0; resource = 0; from_color = 2; to_color = 2 };
    ];
  expect_violation "negative drop" "nonneg_count" ~delta:2
    [ Event.Drop { round = 0; color = 0; count = -1 } ];
  expect_violation "credit off delta" "credit_amount" ~delta:2
    [ Event.Credit { round = 0; color = 0; amount = 3 } ];
  expect_violation "close while ineligible" "epoch_lifecycle" ~delta:2
    [ Event.Epoch_close { round = 0; color = 0; epochs_ended = 1 } ]

let test_watchdog_lemma_bounds () =
  (* 5 charges against a single opened epoch breaks the 4·numEpochs
     reconfiguration budget of Lemma 3.3 *)
  let reconfigures =
    List.init 5 (fun i ->
        Event.Reconfigure
          {
            round = 0;
            mini_round = 0;
            resource = i;
            from_color = Rrs_core.Types.black;
            to_color = 0;
          })
  in
  expect_violation "reconfig budget" "lemma_3_3" ~delta:2
    (Event.Epoch_open { round = 0; color = 0 } :: reconfigures);
  (* Δ·numEpochs = 2 ineligible drops allowed; the third violates
     Lemma 3.4 *)
  expect_violation "ineligible drop budget" "lemma_3_4" ~delta:2
    [
      Event.Epoch_open { round = 0; color = 0 };
      Event.Drop { round = 1; color = 0; count = 3 };
    ];
  (* the same stream without the eligibility event is uninstrumented:
     the lemma gates stay off *)
  let wd = feed ~delta:2 [ Event.Drop { round = 1; color = 0; count = 3 } ] in
  Alcotest.(check bool) "uninstrumented drops unbounded" true (Watchdog.ok wd)

let test_watchdog_fail_fast_and_off () =
  (match
     feed ~policy:Watchdog.Fail_fast ~delta:2
       [ Event.Drop { round = 0; color = 0; count = -1 } ]
   with
  | exception Watchdog.Invariant_violation { invariant; _ } ->
      Alcotest.(check string) "raises" "nonneg_count" invariant
  | _ -> Alcotest.fail "fail-fast must raise");
  let wd = Watchdog.create ~policy:Watchdog.Off ~delta:2 () in
  let inner = Sink.memory () in
  Alcotest.(check bool) "off attach is identity" true
    (Watchdog.attach wd inner == inner)

let test_watchdog_forwards () =
  let wd = Watchdog.create ~policy:Watchdog.Record ~delta:2 () in
  let inner = Sink.memory () in
  let sink = Watchdog.attach wd inner in
  Alcotest.(check bool) "attached sink is enabled" true (Sink.enabled sink);
  let e = Event.Mini_round { round = 0; mini_round = 0 } in
  Sink.emit sink e;
  Alcotest.(check int) "forwarded" 1 (List.length (Sink.events inner));
  Alcotest.(check int) "observed" 1 (Watchdog.events_seen wd)

(* ------------------------------------------------------------------ *)
(* crash-safe artifacts                                                *)
(* ------------------------------------------------------------------ *)

let temp_path name =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "rrs_test_%d_%s" (Unix.getpid ()) name)

let test_with_jsonl_atomic_commit () =
  let path = temp_path "atomic.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  Sink.with_jsonl path (fun sink ->
      Sink.emit sink (Event.Mini_round { round = 0; mini_round = 0 });
      (* nothing visible at the final path until commit *)
      Alcotest.(check bool) "not yet renamed" false (Sys.file_exists path));
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Alcotest.(check int) "one line" 1 (List.length lines);
  Sys.remove path

let test_with_jsonl_commits_on_raise () =
  let path = temp_path "crash.jsonl" in
  if Sys.file_exists path then Sys.remove path;
  (try
     Sink.with_jsonl path (fun sink ->
         for round = 0 to 9 do
           Sink.emit sink (Event.Mini_round { round; mini_round = 0 })
         done;
         raise (Boom 1))
   with Boom 1 -> ());
  let lines = In_channel.with_open_text path In_channel.input_lines in
  Alcotest.(check int) "no buffered line lost" 10 (List.length lines);
  List.iter
    (fun line ->
      match Event.of_line line with
      | Ok _ -> ()
      | Error msg -> Alcotest.failf "unparseable committed line: %s" msg)
    lines;
  Sys.remove path

let summary ~id cost =
  Run_summary.make ~id ~kind:"experiment" ~reconfig_cost:cost ~drop_cost:0 ()

let test_load_tolerant () =
  let path = temp_path "torn.jsonl" in
  let a = Run_summary.to_line (summary ~id:"A" 3) in
  let b = Run_summary.to_line (summary ~id:"B" 5) in
  (* clean file: same result as strict load, no tear reported *)
  Out_channel.with_open_text path (fun oc ->
      output_string oc (a ^ "\n" ^ b ^ "\n"));
  (match Run_summary.load_tolerant path with
  | Ok (summaries, None) ->
      Alcotest.(check (list string)) "both ids" [ "A"; "B" ]
        (List.map (fun s -> s.Run_summary.id) summaries)
  | Ok (_, Some _) -> Alcotest.fail "no tear in a clean file"
  | Error msg -> Alcotest.fail msg);
  (* crash-truncated tail: strict load refuses, tolerant load skips and
     reports the torn line *)
  let torn_tail = String.sub b 0 (String.length b / 2) in
  Out_channel.with_open_text path (fun oc ->
      output_string oc (a ^ "\n" ^ torn_tail));
  (match Run_summary.load path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "strict load must reject the torn tail");
  (match Run_summary.load_tolerant path with
  | Ok (summaries, Some { lineno; _ }) ->
      Alcotest.(check (list string)) "prefix kept" [ "A" ]
        (List.map (fun s -> s.Run_summary.id) summaries);
      Alcotest.(check int) "tear located" 2 lineno
  | Ok (_, None) -> Alcotest.fail "tear not reported"
  | Error msg -> Alcotest.fail msg);
  (* corruption before the tail stays a hard error *)
  Out_channel.with_open_text path (fun oc ->
      output_string oc (torn_tail ^ "\n" ^ a ^ "\n"));
  (match Run_summary.load_tolerant path with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "mid-file corruption must not be tolerated");
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* supervised sweep                                                    *)
(* ------------------------------------------------------------------ *)

let sweep_ids = [ "EXP-A"; "EXP-B" ]

let test_run_many_contains_injected_failure () =
  (* harness.run_policy Nth 1: the first engine run of the first
     experiment dies; the sibling keeps its result and order holds *)
  let plan = Fault.plan [ Fault.fail_on "harness.run_policy" (Fault.Nth 1) ] in
  let results =
    Fault.with_plan plan (fun () ->
        Rrs_experiments.Registry.run_many ~jobs:1 sweep_ids)
  in
  Alcotest.(check (list string)) "order preserved" sweep_ids
    (List.map fst results);
  (match results with
  | [ (_, Error f); (_, Ok _) ] ->
      Alcotest.(check bool) "injection captured" true
        (match f.exn with Fault.Injected _ -> true | _ -> false)
  | _ -> Alcotest.fail "expected first failed, second ok");
  Alcotest.(check int) "one failure listed" 1
    (List.length (Rrs_experiments.Registry.failures results))

let test_run_many_keep_going_false_skips () =
  let plan = Fault.plan [ Fault.fail_on "harness.run_policy" (Fault.Nth 1) ] in
  let results =
    Fault.with_plan plan (fun () ->
        Rrs_experiments.Registry.run_many ~jobs:1 ~keep_going:false sweep_ids)
  in
  match results with
  | [ (_, Error first); (_, Error second) ] ->
      Alcotest.(check string) "first really ran" "exception" first.phase;
      Alcotest.(check string) "second skipped" "skipped" second.phase
  | _ -> Alcotest.fail "expected failure then skip"

let test_run_many_parallel_under_faults () =
  (* every domain's first pool task dies at the probe, outside the
     supervised thunk — map_results still returns all four entries *)
  let ids = [ "EXP-A"; "EXP-B" ] in
  let plan = Fault.plan [ Fault.fail_on "pool.worker" (Fault.Nth 1) ] in
  let results =
    Fault.with_plan plan (fun () ->
        Rrs_experiments.Registry.run_many ~jobs:2 ids)
  in
  Alcotest.(check (list string)) "no sibling lost" ids (List.map fst results);
  List.iter
    (fun (_, r) ->
      match r with
      | Error { Supervisor.exn = Fault.Injected { point; _ }; _ } ->
          Alcotest.(check string) "pool injection" "pool.worker" point
      | Error f ->
          Alcotest.failf "unexpected failure: %a" Supervisor.pp_failure f
      | Ok _ -> ())
    results

(* the --resume contract, at the library level: interrupt a sweep after
   one experiment, leave a torn tail, and the resumed sweep completes
   exactly the missing ids — the merged artifact equals the
   uninterrupted run's modulo wall-clock fields *)
let test_resume_completes_missing_ids () =
  let strip s = Run_summary.to_line (Run_summary.strip_timings s) in
  let summaries ids =
    List.filter_map
      (fun (_, r) ->
        match r with
        | Ok { Rrs_experiments.Registry.summary = s; _ } -> Some s
        | Error _ -> None)
      (Rrs_experiments.Registry.run_many ~jobs:1 ids)
  in
  let uninterrupted = summaries sweep_ids in
  let path = temp_path "resume.jsonl" in
  (* the simulated crash: only EXP-A's line landed, then a torn write *)
  Out_channel.with_open_text path (fun oc ->
      Run_summary.write oc (List.hd uninterrupted);
      output_string oc "{\"type\":\"run_summ");
  (match Run_summary.load_tolerant path with
  | Ok (previous, Some _) ->
      let done_ids = List.map (fun s -> s.Run_summary.id) previous in
      let todo =
        List.filter (fun id -> not (List.mem id done_ids)) sweep_ids
      in
      Alcotest.(check (list string)) "exactly the missing ids" [ "EXP-B" ] todo;
      let merged = previous @ summaries todo in
      Alcotest.(check (list string))
        "merged artifact = uninterrupted modulo timings"
        (List.map strip uninterrupted)
        (List.map strip merged)
  | Ok (_, None) -> Alcotest.fail "torn tail not detected"
  | Error msg -> Alcotest.fail msg);
  Sys.remove path

(* ------------------------------------------------------------------ *)
(* crash dumps                                                         *)
(* ------------------------------------------------------------------ *)

module Flight_recorder = Rrs_obs.Flight_recorder

(* a supervisor failure under an armed recorder scope must leave a
   black-box: crash-<name>.jsonl, header line first, then the retained
   event window *)
let test_supervisor_auto_crash_dump () =
  let dir = temp_path "dumps" in
  let recorder = Flight_recorder.create ~capacity:8 () in
  let result =
    Flight_recorder.with_recorder ~dump_dir:dir recorder (fun () ->
        for round = 1 to 20 do
          Flight_recorder.record recorder
            (Event.Drop { round; color = 0; count = 1 })
        done;
        Supervisor.run ~name:"boom task" (fun () -> raise (Boom 3)))
  in
  (match result with
  | Error f -> Alcotest.(check bool) "exn kept" true (f.exn = Boom 3)
  | Ok _ -> Alcotest.fail "failure not captured");
  let path = Flight_recorder.crash_dump_path ~dir ~name:"boom task" in
  Alcotest.(check bool)
    "name sanitised into the filename" true
    (Filename.basename path = "crash-boom-task.jsonl");
  (match In_channel.with_open_text path In_channel.input_lines with
  | [] -> Alcotest.fail "empty dump"
  | header :: events ->
      let json = Rrs_obs.Json.parse_exn header in
      let str key =
        Option.get (Rrs_obs.Json.member key json)
        |> Rrs_obs.Json.to_string_lit |> Result.get_ok
      in
      Alcotest.(check string) "header type" "flight_recorder" (str "type");
      Alcotest.(check string) "header name" "boom task" (str "name");
      Alcotest.(check bool)
        "reason carries the exception" true
        (let reason = str "reason" in
         let nl = String.length "Boom" and hl = String.length reason in
         let rec go i =
           i + nl <= hl && (String.sub reason i nl = "Boom" || go (i + 1))
         in
         go 0);
      (* capacity 8, 20 recorded: the dump holds exactly the last 8 *)
      Alcotest.(check int) "retained window" 8 (List.length events);
      List.iteri
        (fun i line ->
          match Result.get_ok (Event.of_line line) with
          | Event.Drop { round; _ } ->
              Alcotest.(check int) "suffix, oldest first" (13 + i) round
          | _ -> Alcotest.fail "unexpected event in dump")
        events);
  Sys.remove path

(* a transient failure that recovers on retry is not a final failure:
   no dump; and a clean run leaves nothing either *)
let test_crash_dump_only_on_final_failure () =
  let dir = temp_path "dumps_clean" in
  let recorder = Flight_recorder.create () in
  let clock, _ = test_clock () in
  let calls = ref 0 in
  let result =
    Flight_recorder.with_recorder ~dump_dir:dir recorder (fun () ->
        Supervisor.run ~policy:(retry_policy clock) ~name:"recovers" (fun () ->
            incr calls;
            if !calls < 2 then raise (Boom 1) else "ok"))
  in
  (match result with
  | Ok v -> Alcotest.(check string) "recovered" "ok" v
  | Error f -> Alcotest.failf "should recover: %a" Supervisor.pp_failure f);
  Alcotest.(check bool)
    "no dump for a recovered task" false
    (Sys.file_exists (Flight_recorder.crash_dump_path ~dir ~name:"recovers"));
  (* without a dump_dir the scope is unarmed: a final failure dumps
     nowhere and still returns normally *)
  let unarmed = Flight_recorder.create () in
  (match
     Flight_recorder.with_recorder unarmed (fun () ->
         Supervisor.run ~name:"unarmed" (fun () -> raise (Boom 9)))
   with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "failure not captured");
  Alcotest.(check bool)
    "unarmed scope left no directory" false
    (Sys.file_exists (Flight_recorder.crash_dump_path ~dir:"." ~name:"unarmed"))

let () =
  Alcotest.run "robust"
    [
      ( "supervisor",
        [
          Alcotest.test_case "ok" `Quick test_supervisor_ok;
          Alcotest.test_case "fatal capture" `Quick test_supervisor_fatal;
          Alcotest.test_case "retry until success" `Quick
            test_supervisor_retries_until_success;
          Alcotest.test_case "retries exhausted" `Quick
            test_supervisor_exhausts_retries;
          Alcotest.test_case "timeout" `Quick test_supervisor_timeout;
          Alcotest.test_case "skipped" `Quick test_supervisor_skipped;
          Alcotest.test_case "classify_default" `Quick test_classify_default;
        ] );
      ( "fault",
        [
          Alcotest.test_case "inactive no-op" `Quick test_fault_inactive_noop;
          Alcotest.test_case "nth" `Quick test_fault_nth_fires_once;
          Alcotest.test_case "every" `Quick test_fault_every;
          Alcotest.test_case "prob deterministic" `Quick
            test_fault_prob_deterministic;
          Alcotest.test_case "delay" `Quick test_fault_delay_uses_plan_sleep;
          Alcotest.test_case "scope nesting" `Quick
            test_fault_scope_nests_and_restores;
          Alcotest.test_case "domain isolation" `Quick
            test_fault_domains_isolated;
          Alcotest.test_case "validation" `Quick test_fault_validation;
        ] );
      ( "watchdog",
        [
          Alcotest.test_case "clean stream" `Quick test_watchdog_clean_stream;
          Alcotest.test_case "violations" `Quick test_watchdog_violations;
          Alcotest.test_case "lemma bounds" `Quick test_watchdog_lemma_bounds;
          Alcotest.test_case "fail-fast and off" `Quick
            test_watchdog_fail_fast_and_off;
          Alcotest.test_case "forwards" `Quick test_watchdog_forwards;
        ] );
      ( "artifacts",
        [
          Alcotest.test_case "atomic commit" `Quick
            test_with_jsonl_atomic_commit;
          Alcotest.test_case "commit on raise" `Quick
            test_with_jsonl_commits_on_raise;
          Alcotest.test_case "tolerant load" `Quick test_load_tolerant;
        ] );
      ( "supervised sweep",
        [
          Alcotest.test_case "contains failures" `Quick
            test_run_many_contains_injected_failure;
          Alcotest.test_case "keep-going=false skips" `Quick
            test_run_many_keep_going_false_skips;
          Alcotest.test_case "parallel under faults" `Quick
            test_run_many_parallel_under_faults;
          Alcotest.test_case "supervisor takes a crash dump" `Quick
            test_supervisor_auto_crash_dump;
          Alcotest.test_case "no dump unless final failure" `Quick
            test_crash_dump_only_on_final_failure;
          Alcotest.test_case "resume completes missing ids" `Quick
            test_resume_completes_missing_ids;
        ] );
    ]
