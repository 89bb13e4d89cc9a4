(* Tests for the trace substrate: CSV, instance interchange, metrics. *)

open Rrs_core
module Csv = Rrs_trace.Csv
module Instance_io = Rrs_trace.Instance_io
module Metrics = Rrs_trace.Metrics
module Families = Rrs_workload.Families

let arr round color count = { Types.round; color; count }

(* ------------------------------------------------------------------ *)
(* CSV                                                                 *)
(* ------------------------------------------------------------------ *)

let test_csv_escaping () =
  Alcotest.(check string) "plain" "abc" (Csv.escape_field "abc");
  Alcotest.(check string) "comma" "\"a,b\"" (Csv.escape_field "a,b");
  Alcotest.(check string) "quote" "\"a\"\"b\"" (Csv.escape_field "a\"b");
  Alcotest.(check string) "newline" "\"a\nb\"" (Csv.escape_field "a\nb")

let test_csv_parse_simple () =
  Alcotest.(check (list (list string)))
    "two rows"
    [ [ "a"; "b" ]; [ "1"; "2" ] ]
    (Csv.parse_exn "a,b\n1,2\n");
  Alcotest.(check (list (list string)))
    "no trailing newline"
    [ [ "a"; "b" ] ]
    (Csv.parse_exn "a,b");
  Alcotest.(check (list (list string)))
    "blank lines skipped"
    [ [ "a" ]; [ "b" ] ]
    (Csv.parse_exn "a\n\nb\n");
  Alcotest.(check (list (list string)))
    "crlf" [ [ "a"; "b" ] ] (Csv.parse_exn "a,b\r\n")

let test_csv_parse_quoted () =
  Alcotest.(check (list (list string)))
    "quoted comma"
    [ [ "a,b"; "c" ] ]
    (Csv.parse_exn "\"a,b\",c\n");
  Alcotest.(check (list (list string)))
    "escaped quote"
    [ [ "say \"hi\"" ] ]
    (Csv.parse_exn "\"say \"\"hi\"\"\"\n");
  Alcotest.(check (list (list string)))
    "embedded newline"
    [ [ "a\nb" ] ]
    (Csv.parse_exn "\"a\nb\"\n")

let test_csv_parse_errors () =
  Alcotest.(check bool) "unterminated" true
    (Result.is_error (Csv.parse "\"abc"));
  Alcotest.(check bool) "stray quote" true (Result.is_error (Csv.parse "ab\"c"));
  Alcotest.(check bool) "garbage after quote" true
    (Result.is_error (Csv.parse "\"a\"b"))

let prop_csv_roundtrip =
  let field =
    QCheck.Gen.(
      string_size ~gen:(oneofl [ 'a'; 'b'; ','; '"'; '\n'; 'x'; ' ' ]) (int_range 0 8))
  in
  QCheck.Test.make ~count:300 ~name:"csv render/parse round-trips"
    (QCheck.make
       QCheck.Gen.(list_size (int_range 1 5) (list_size (int_range 1 4) field)))
    (fun rows ->
      (* rows whose fields are all empty render as blank lines, which the
         parser deliberately skips; normalise the expectation *)
      let expected = List.filter (fun row -> row <> [ "" ]) rows in
      match Csv.parse (Csv.render rows) with
      | Ok parsed -> parsed = expected
      | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* Instance interchange                                                *)
(* ------------------------------------------------------------------ *)

let test_instance_roundtrip () =
  let original =
    Instance.create ~name:"io-test" ~delta:3 ~delay:[| 4; 2; 8 |]
      ~arrivals:[ arr 0 0 3; arr 2 1 5; arr 8 2 1 ]
      ()
  in
  match Instance_io.of_csv (Instance_io.to_csv original) with
  | Error msg -> Alcotest.failf "round-trip failed: %s" msg
  | Ok loaded ->
      Alcotest.(check string) "name" original.name loaded.name;
      Alcotest.(check int) "delta" original.delta loaded.delta;
      Alcotest.(check (list int)) "delays" (Array.to_list original.delay)
        (Array.to_list loaded.delay);
      Alcotest.(check bool) "arrivals" true
        (original.arrivals = loaded.arrivals)

let test_instance_roundtrip_families () =
  List.iter
    (fun (f : Families.family) ->
      let original = f.build ~seed:3 in
      match Instance_io.of_csv (Instance_io.to_csv original) with
      | Error msg -> Alcotest.failf "%s: %s" f.id msg
      | Ok loaded ->
          if original.arrivals <> loaded.arrivals then
            Alcotest.failf "%s: arrivals changed" f.id)
    Families.all

let test_instance_io_errors () =
  let check_err name doc =
    match Instance_io.of_csv doc with
    | Error _ -> ()
    | Ok _ -> Alcotest.failf "%s accepted" name
  in
  check_err "missing delta" "delay,0,4\n";
  check_err "bad int" "meta,delta,four\ndelay,0,4\n";
  check_err "gap in colors" "meta,delta,2\ndelay,0,4\ndelay,2,4\n";
  check_err "unknown row" "meta,delta,2\ndelay,0,4\nwat,1\n";
  check_err "invalid instance" "meta,delta,0\ndelay,0,4\n"

let test_instance_file_io () =
  let path = Filename.temp_file "rrs" ".csv" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let original =
        Instance.create ~delta:2 ~delay:[| 2 |] ~arrivals:[ arr 0 0 2 ] ()
      in
      Instance_io.save path original;
      match Instance_io.load path with
      | Ok loaded ->
          Alcotest.(check bool) "file round-trip" true
            (loaded.arrivals = original.arrivals)
      | Error msg -> Alcotest.fail msg)

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)
(* ------------------------------------------------------------------ *)

(* a run with the sampler attached to the engine's sink *)
let sampled ?mini_rounds instance factory ~n =
  let metrics = Metrics.create () in
  let sink = Metrics.attach metrics Rrs_obs.Sink.null in
  (metrics, Engine.run (Engine.config ~n ?mini_rounds ~sink ()) instance factory)

let test_metrics_series () =
  let instance =
    Instance.create ~delta:1 ~delay:[| 4 |] ~arrivals:[ arr 0 0 6; arr 4 0 2 ] ()
  in
  let metrics, r = sampled instance (Static_policy.static [ 0 ]) ~n:1 in
  let samples = Metrics.samples metrics in
  Alcotest.(check int) "one sample per round" r.rounds_simulated
    (List.length samples);
  let last = List.nth samples (List.length samples - 1) in
  Alcotest.(check int) "cumulative drops match engine" r.dropped
    last.Metrics.cumulative_drops;
  Alcotest.(check int) "recolorings match engine" r.reconfigurations
    last.Metrics.cumulative_recolorings;
  (* backlog at round 0 is the 6 arrivals (sampled before execution) *)
  let first = List.hd samples in
  Alcotest.(check int) "round-0 backlog" 6 first.Metrics.backlog;
  Alcotest.(check int) "round-0 cached" 1 first.Metrics.cached_colors

let test_metrics_csv () =
  let instance =
    Instance.create ~delta:1 ~delay:[| 2 |] ~arrivals:[ arr 0 0 2 ] ()
  in
  let metrics, _ = sampled instance (Static_policy.static [ 0 ]) ~n:1 in
  let rows = Csv.parse_exn (Metrics.to_csv metrics) in
  Alcotest.(check int) "header + rounds" (1 + 3) (List.length rows);
  Alcotest.(check int) "six columns" 6 (List.length (List.hd rows))

let test_metrics_double_speed_merged () =
  let instance =
    Instance.create ~delta:1 ~delay:[| 2 |] ~arrivals:[ arr 0 0 4 ] ()
  in
  let metrics, r =
    sampled ~mini_rounds:2 instance Edf_policy.seq_policy ~n:1
  in
  let samples = Metrics.samples metrics in
  Alcotest.(check int) "mini-rounds merged" r.rounds_simulated
    (List.length samples)

let test_metrics_backlog_summary () =
  let instance =
    Instance.create ~delta:1 ~delay:[| 4 |] ~arrivals:[ arr 0 0 4 ] ()
  in
  let metrics, _ = sampled instance Static_policy.black ~n:1 in
  let s = Metrics.backlog_summary metrics in
  (* black policy never executes: backlog stays 4 until the drop at 4 *)
  Alcotest.(check bool) "max backlog 4" true (s.max = 4.0);
  Alcotest.(check bool) "min backlog 0" true (s.min = 0.0)

let () =
  Alcotest.run "trace"
    [
      ( "csv",
        [
          Alcotest.test_case "escaping" `Quick test_csv_escaping;
          Alcotest.test_case "parse simple" `Quick test_csv_parse_simple;
          Alcotest.test_case "parse quoted" `Quick test_csv_parse_quoted;
          Alcotest.test_case "parse errors" `Quick test_csv_parse_errors;
          QCheck_alcotest.to_alcotest prop_csv_roundtrip;
        ] );
      ( "instance io",
        [
          Alcotest.test_case "round-trip" `Quick test_instance_roundtrip;
          Alcotest.test_case "families round-trip" `Quick
            test_instance_roundtrip_families;
          Alcotest.test_case "errors" `Quick test_instance_io_errors;
          Alcotest.test_case "file io" `Quick test_instance_file_io;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "series" `Quick test_metrics_series;
          Alcotest.test_case "csv export" `Quick test_metrics_csv;
          Alcotest.test_case "double speed merged" `Quick
            test_metrics_double_speed_merged;
          Alcotest.test_case "backlog summary" `Quick
            test_metrics_backlog_summary;
        ] );
    ]
