(* The perf-regression gate's comparison semantics: identity passes, a
   synthetic injected regression fails (the acceptance property of
   bench/check.exe), tolerances absorb measurement noise, deterministic
   metrics gate exactly, and the report ranks regressions first. *)

module B = Rrs_benchdiff
module Run_summary = Rrs_obs.Run_summary

let summary ?(id = "core-scaling-c256") ?(reconfig = 1536) ?(drop = 0) analysis
    =
  Run_summary.make ~id ~kind:"bench" ~seed:1 ~config:[]
    ~reconfig_cost:reconfig ~drop_cost:drop ~analysis ()

let base_analysis =
  [
    ("rounds", 6145.0);
    ("incremental_seconds", 0.02);
    ("incremental_rounds_per_sec", 300000.0);
    ("rebuild_rounds_per_sec", 200000.0);
    ("speedup", 1.5);
    ("ranking_updates", 1251.0);
    ("identical", 1.0);
    ("alloc_minor_words_per_round", 500.0);
  ]

let baseline () = [ summary base_analysis ]

let with_metric name v =
  [ summary (List.map (fun (k, x) -> if k = name then (k, v) else (k, x)) base_analysis) ]

let compare_one current =
  B.compare_summaries ~baseline:(baseline ()) ~current ()

let regressed_metrics report =
  List.filter_map
    (fun (d : B.delta) ->
      if d.verdict = B.Regression then Some d.metric else None)
    report.B.deltas

let test_identity_passes () =
  let report = compare_one (baseline ()) in
  Alcotest.(check bool) "ok" true (B.ok report);
  Alcotest.(check int) "no regressions" 0 report.B.regressions;
  Alcotest.(check bool) "PASS rendered" true
    (String.ends_with ~suffix:"PASS\n" (B.render report))

(* the acceptance property: a doctored current artifact must fail *)
let test_injected_regressions_fail () =
  let cases =
    [
      (* the machine-relative gate: speedup collapse beyond 35% *)
      ("analysis.speedup", with_metric "speedup" 0.9);
      (* deterministic work count growth beyond 10% *)
      ("analysis.ranking_updates", with_metric "ranking_updates" 1500.0);
      (* allocation growth beyond 8% and 16 words *)
      ( "analysis.alloc_minor_words_per_round",
        with_metric "alloc_minor_words_per_round" 700.0 );
      (* exact metrics: any drift at all *)
      ("analysis.identical", with_metric "identical" 0.0);
      ("analysis.rounds", with_metric "rounds" 6146.0);
      (* order-of-magnitude throughput collapse *)
      ( "analysis.incremental_rounds_per_sec",
        with_metric "incremental_rounds_per_sec" 50000.0 );
      (* cost drift: the component and the derived total both gate *)
      ("cost.reconfig|cost.total", [ summary ~reconfig:1538 base_analysis ]);
    ]
  in
  List.iter
    (fun (metrics, current) ->
      let metric = String.split_on_char '|' metrics in
      let label = String.concat "," metric in
      let report = compare_one current in
      Alcotest.(check bool) (label ^ " fails the gate") false (B.ok report);
      Alcotest.(check (list string))
        (label ^ " regressions exact")
        metric
        (List.sort compare (regressed_metrics report));
      Alcotest.(check bool)
        (label ^ " FAIL rendered")
        true
        (String.ends_with ~suffix:"FAIL\n" (B.render report)))
    cases

let test_noise_within_tolerance_passes () =
  let current =
    [
      summary
        [
          ("rounds", 6145.0);
          ("incremental_seconds", 0.031); (* wall clock: info, never gated *)
          ("incremental_rounds_per_sec", 200000.0); (* -33% < 75% *)
          ("rebuild_rounds_per_sec", 150000.0);
          ("speedup", 1.2); (* -20% < 35% *)
          ("ranking_updates", 1251.0);
          ("identical", 1.0);
          ("alloc_minor_words_per_round", 510.0); (* +2% < 8% *)
        ];
    ]
  in
  Alcotest.(check bool) "within tolerance" true (B.ok (compare_one current))

(* The command-deadline overhead is a ratio of two timings taken in
   turns in one process: noise passes, and the domain per command it
   replaced (~100x the bare path) fails. *)
let test_deadline_overhead_band () =
  let summary v = [ summary ~id:"serve-deadline" [ ("deadline_overhead", v) ] ] in
  let ok v =
    B.ok (B.compare_summaries ~baseline:(summary 1.05) ~current:(summary v) ())
  in
  Alcotest.(check bool) "noise passes" true (ok 1.6);
  Alcotest.(check bool) "a domain per command fails" false (ok 100.)

let test_improvements_pass () =
  let current =
    [
      summary
        (List.map
           (fun (k, v) ->
             match k with
             | "speedup" -> (k, 2.5)
             | "ranking_updates" -> (k, 900.0)
             | "alloc_minor_words_per_round" -> (k, 300.0)
             | _ -> (k, v))
           base_analysis);
    ]
  in
  let report = compare_one current in
  Alcotest.(check bool) "improvements are not regressions" true (B.ok report);
  Alcotest.(check bool) "improvement verdicts present" true
    (List.exists
       (fun (d : B.delta) -> d.verdict = B.Improvement)
       report.B.deltas)

let test_missing_id_and_metric_are_regressions () =
  (* a vanished record *)
  let report = compare_one [] in
  Alcotest.(check bool) "missing id fails" false (B.ok report);
  Alcotest.(check (list string))
    "missing id listed" [ "core-scaling-c256" ] report.B.missing_ids;
  (* a metric the current run stopped producing *)
  let report =
    compare_one [ summary (List.remove_assoc "speedup" base_analysis) ]
  in
  Alcotest.(check bool) "dropped metric fails" false (B.ok report);
  Alcotest.(check (list string))
    "dropped metric reported" [ "analysis.speedup" ]
    (regressed_metrics report);
  (* a new id is informational, not a failure *)
  let report =
    compare_one (baseline () @ [ summary ~id:"core-scaling-c512" base_analysis ])
  in
  Alcotest.(check bool) "new id passes" true (B.ok report);
  Alcotest.(check (list string))
    "new id listed" [ "core-scaling-c512" ] report.B.new_ids

let test_regressions_ranked_first () =
  let current =
    [
      summary
        (List.map
           (fun (k, v) ->
             match k with
             | "speedup" -> (k, 0.5)
             | "alloc_minor_words_per_round" -> (k, 400.0) (* improvement *)
             | _ -> (k, v))
           base_analysis);
    ]
  in
  let report = compare_one current in
  match report.B.deltas with
  | first :: _ ->
      Alcotest.(check string) "worst first" "analysis.speedup" first.B.metric;
      Alcotest.(check bool) "it is a regression" true
        (first.B.verdict = B.Regression)
  | [] -> Alcotest.fail "no deltas"

let test_custom_rules_take_precedence () =
  let rules = [ B.rule "analysis.speedup" B.Info ] in
  let report =
    B.compare_summaries ~rules ~baseline:(baseline ())
      ~current:(with_metric "speedup" 0.1) ()
  in
  Alcotest.(check bool) "speedup demoted to info" true (B.ok report)

let test_compare_files_roundtrip () =
  let dir = Filename.temp_dir "benchdiff" "" in
  let write name summaries =
    let path = Filename.concat dir name in
    Out_channel.with_open_text path (fun oc ->
        List.iter (Run_summary.write oc) summaries);
    path
  in
  let b = write "baseline.jsonl" (baseline ()) in
  let good = write "good.jsonl" (baseline ()) in
  let bad = write "bad.jsonl" (with_metric "speedup" 0.5) in
  (match B.compare_files ~baseline:b ~current:good () with
  | Ok report -> Alcotest.(check bool) "files: identity passes" true (B.ok report)
  | Error msg -> Alcotest.fail msg);
  (match B.compare_files ~baseline:b ~current:bad () with
  | Ok report ->
      Alcotest.(check bool) "files: regression fails" false (B.ok report)
  | Error msg -> Alcotest.fail msg);
  match B.compare_files ~baseline:b ~current:(Filename.concat dir "nope") () with
  | Ok _ -> Alcotest.fail "unreadable current must error"
  | Error _ -> ()

let () =
  Alcotest.run "benchdiff"
    [
      ( "gate",
        [
          Alcotest.test_case "identity passes" `Quick test_identity_passes;
          Alcotest.test_case "injected regressions fail" `Quick
            test_injected_regressions_fail;
          Alcotest.test_case "noise within tolerance" `Quick
            test_noise_within_tolerance_passes;
          Alcotest.test_case "improvements pass" `Quick test_improvements_pass;
          Alcotest.test_case "deadline overhead band" `Quick
            test_deadline_overhead_band;
          Alcotest.test_case "missing ids and metrics" `Quick
            test_missing_id_and_metric_are_regressions;
          Alcotest.test_case "ranking" `Quick test_regressions_ranked_first;
          Alcotest.test_case "custom rules" `Quick
            test_custom_rules_take_precedence;
          Alcotest.test_case "compare_files" `Quick test_compare_files_roundtrip;
        ] );
    ]
