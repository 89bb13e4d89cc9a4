(* Tests for the observability layer (Rrs_obs): canonical JSON, event
   sinks, the metrics registry, run_summary artifacts — and the contract
   that matters most: the event stream is a faithful superset of the
   engine's and the eligibility machinery's own counters. *)

open Rrs_core
module Json = Rrs_obs.Json
module Event = Rrs_obs.Event
module Sink = Rrs_obs.Sink
module Metrics = Rrs_obs.Metrics
module Run_summary = Rrs_obs.Run_summary
module Families = Rrs_workload.Families

(* ------------------------------------------------------------------ *)
(* canonical JSON                                                      *)
(* ------------------------------------------------------------------ *)

let test_json_value_roundtrip () =
  let values =
    [
      Json.Null;
      Json.Bool true;
      Json.Int (-42);
      Json.Float 2.5;
      Json.Float 1e-9;
      Json.Float 1024.0;
      Json.String "a \"quoted\" line\nwith\ttabs and \xc3\xa9";
      Json.List [ Json.Int 1; Json.Null; Json.List [] ];
      Json.Assoc [ ("b", Json.Int 2); ("a", Json.Assoc []) ];
    ]
  in
  List.iter
    (fun v ->
      let s = Json.to_string v in
      Alcotest.(check string)
        "print . parse . print = print" s
        (Json.to_string (Json.parse_exn s)))
    values

let test_json_canonical_strings () =
  (* canonical strings reproduce byte for byte *)
  List.iter
    (fun s ->
      Alcotest.(check string) s s (Json.to_string (Json.parse_exn s)))
    [
      {|{"type":"x","round":3,"ratio":1.5}|};
      {|[null,true,false,-7,"\\\""]|};
      {|{"nested":{"empty":[],"f":0.001}}|};
    ]

let test_json_rejects_malformed () =
  List.iter
    (fun s ->
      match Json.parse s with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "accepted malformed %S" s)
    [ ""; "{"; "[1,]"; "{\"a\":}"; "01"; "1 2"; "nul"; "\"unterminated" ]

(* ------------------------------------------------------------------ *)
(* events                                                              *)
(* ------------------------------------------------------------------ *)

let all_event_variants =
  [
    Event.Drop { round = 1; color = 2; count = 3 };
    Event.Arrival { round = 1; color = 0; count = 9 };
    Event.Reconfigure
      { round = 4; mini_round = 1; resource = 2; from_color = -1; to_color = 5 };
    Event.Execute { round = 4; mini_round = 0; resource = 7; color = 5 };
    Event.Mini_round { round = 4; mini_round = 1 };
    Event.Round_end { round = 4; delta = 3; latency_us = 17 };
    Event.Epoch_open { round = 0; color = 3 };
    Event.Epoch_close { round = 8; color = 3; epochs_ended = 2 };
    Event.Counter_wrap { round = 5; color = 1; wraps = 4 };
    Event.Timestamp_update { round = 8; color = 3 };
    Event.Super_epoch { round = 9; index = 1; active_colors = 2; updates = 11 };
    Event.Credit { round = 5; color = 1; amount = 6 };
  ]

let test_event_roundtrip () =
  List.iter
    (fun e ->
      match Event.of_line (Event.to_line e) with
      | Ok e' when e' = e -> ()
      | Ok _ -> Alcotest.failf "event %s changed under round-trip" (Event.kind e)
      | Error msg -> Alcotest.failf "event %s: %s" (Event.kind e) msg)
    all_event_variants

(* ------------------------------------------------------------------ *)
(* sinks                                                               *)
(* ------------------------------------------------------------------ *)

let test_sink_null_is_disabled () =
  Alcotest.(check bool) "disabled" false (Sink.enabled Sink.null);
  Sink.emit Sink.null (List.hd all_event_variants);
  Alcotest.(check int) "no events" 0 (Sink.count Sink.null);
  Alcotest.(check (list reject)) "no buffer" [] (Sink.events Sink.null)

let test_sink_memory_preserves_order () =
  let sink = Sink.memory () in
  Alcotest.(check bool) "enabled" true (Sink.enabled sink);
  List.iter (Sink.emit sink) all_event_variants;
  Alcotest.(check int) "count" (List.length all_event_variants)
    (Sink.count sink);
  Alcotest.(check bool) "chronological" true
    (Sink.events sink = all_event_variants)

let test_sink_jsonl_lines_parse_back () =
  let path = Filename.temp_file "rrs_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          let sink = Sink.jsonl oc in
          List.iter (Sink.emit sink) all_event_variants);
      let lines = In_channel.with_open_text path In_channel.input_lines in
      let parsed = List.map (fun l -> Result.get_ok (Event.of_line l)) lines in
      Alcotest.(check bool) "parse back" true (parsed = all_event_variants))

(* ------------------------------------------------------------------ *)
(* engine parity: tracing must not change results                      *)
(* ------------------------------------------------------------------ *)

let same_result (a : Engine.result) (b : Engine.result) =
  a.cost = b.cost && a.executed = b.executed && a.dropped = b.dropped
  && a.reconfigurations = b.reconfigurations
  && a.rounds_simulated = b.rounds_simulated
  && a.drops_by_color = b.drops_by_color
  && a.executions_by_color = b.executions_by_color
  && a.final_cache = b.final_cache

let test_null_vs_memory_parity () =
  let instance = (Option.get (Families.find "router")).build ~seed:3 in
  let run sink =
    let instr = Lru_edf.make ~sink instance ~n:8 in
    Engine.run_policy (Engine.config ~n:8 ~sink ()) instance instr.policy
  in
  let r_null = run Sink.null in
  let r_mem = run (Sink.memory ()) in
  Alcotest.(check bool) "identical results" true (same_result r_null r_mem)

(* ------------------------------------------------------------------ *)
(* faithfulness: events reproduce the counters exactly                 *)
(* ------------------------------------------------------------------ *)

let run_traced instance ~n ~m =
  let sink = Sink.memory () in
  let se = Super_epochs.create ~m in
  let instr = Lru_edf.make ~sink:(Super_epochs.attach se sink) instance ~n in
  let r = Engine.run_policy (Engine.config ~n ~sink ()) instance instr.policy in
  (r, instr.eligibility, se, Sink.events sink)

let test_events_reproduce_counters () =
  let instance = (Option.get (Families.find "router")).build ~seed:1 in
  let r, elig, se, events = run_traced instance ~n:8 ~m:1 in
  let count pred = List.length (List.filter pred events) in
  let sum f = List.fold_left (fun acc e -> acc + f e) 0 events in
  (* engine phases *)
  Alcotest.(check int) "Execute events = executed" r.executed
    (count (function Event.Execute _ -> true | _ -> false));
  Alcotest.(check int) "Drop counts sum = dropped" r.dropped
    (sum (function Event.Drop { count; _ } -> count | _ -> 0));
  Alcotest.(check int) "Reconfigure events = charged recolorings"
    r.reconfigurations
    (count (function Event.Reconfigure _ -> true | _ -> false));
  Alcotest.(check int) "Arrival counts sum = executed + dropped"
    (r.executed + r.dropped)
    (sum (function Event.Arrival { count; _ } -> count | _ -> 0));
  (* eligibility machinery *)
  Alcotest.(check int) "Counter_wrap events = wrap_events_total"
    (Eligibility.wrap_events_total elig)
    (count (function Event.Counter_wrap _ -> true | _ -> false));
  Alcotest.(check int) "Credit amounts sum = wraps * delta"
    (Eligibility.wrap_events_total elig * instance.delta)
    (sum (function Event.Credit { amount; _ } -> amount | _ -> 0));
  Array.iteri
    (fun color _ ->
      Alcotest.(check int)
        (Printf.sprintf "Epoch_close events of color %d = epochs_ended" color)
        (Eligibility.epochs_ended elig color)
        (count (function
          | Event.Epoch_close { color = c; _ } -> c = color
          | _ -> false)))
    instance.delay;
  (* super-epochs *)
  Alcotest.(check int) "Super_epoch events = completed"
    (Super_epochs.completed se)
    (count (function Event.Super_epoch _ -> true | _ -> false));
  Alcotest.(check (list int)) "active_colors payloads"
    (Super_epochs.active_colors_per_super_epoch se)
    (List.filter_map
       (function
         | Event.Super_epoch { active_colors; _ } -> Some active_colors
         | _ -> None)
       events);
  Alcotest.(check int) "Timestamp_update events = updates_total"
    (Super_epochs.updates_total se)
    (count (function Event.Timestamp_update _ -> true | _ -> false))

let test_event_rounds_are_monotone () =
  let instance = (Option.get (Families.find "uniform")).build ~seed:2 in
  let _, _, _, events = run_traced instance ~n:8 ~m:1 in
  Alcotest.(check bool) "some events" true (events <> []);
  let _ =
    List.fold_left
      (fun last e ->
        let r = Event.round e in
        if r < last then Alcotest.failf "round went back: %d after %d" r last;
        r)
      0 events
  in
  ()

(* ------------------------------------------------------------------ *)
(* metrics registry                                                    *)
(* ------------------------------------------------------------------ *)

let test_metrics_instruments () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "runs" in
  Metrics.inc c 2;
  Metrics.inc c 3;
  Alcotest.(check int) "counter" 5 (Metrics.value c);
  Alcotest.(check bool) "same name, same counter" true
    (Metrics.value (Metrics.counter reg "runs") = 5);
  (match Metrics.inc c (-1) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "negative increment accepted");
  (match Metrics.gauge reg "runs" with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "kind clash accepted");
  let g = Metrics.gauge reg "load" in
  Alcotest.(check bool) "gauge starts nan" true
    (Float.is_nan (Metrics.gauge_value g));
  Metrics.set g 0.75;
  Alcotest.(check (float 0.0)) "gauge set" 0.75 (Metrics.gauge_value g);
  let h = Metrics.histogram reg "lat" ~max_value:64 in
  List.iter (Metrics.observe h) [ 1; 2; 2; 63 ];
  Alcotest.(check int) "histogram count" 4
    (Rrs_stats.Histogram.count (Metrics.histogram_stats h))

let test_metrics_timer_monotone () =
  let reg = Metrics.create () in
  let t = Metrics.timer reg "phase" in
  let span = Metrics.start t in
  let x = ref 0 in
  for i = 1 to 10_000 do
    x := !x + i
  done;
  let d = Metrics.stop span in
  Alcotest.(check bool) "duration >= 0" true (d >= 0.0);
  (match Metrics.stop span with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "double stop accepted");
  let v = Metrics.time t (fun () -> 41 + 1) in
  Alcotest.(check int) "time returns the value" 42 v;
  Alcotest.(check int) "two spans recorded" 2 (Metrics.timer_count t);
  Alcotest.(check bool) "total >= each span" true
    (Metrics.timer_total t >= d);
  match Metrics.timers reg with
  | [ ("phase", 2, total) ] ->
      Alcotest.(check bool) "export total" true (total = Metrics.timer_total t)
  | _ -> Alcotest.fail "timers export shape"

let test_metrics_json_is_canonical () =
  let reg = Metrics.create () in
  Metrics.inc (Metrics.counter reg "b") 1;
  Metrics.inc (Metrics.counter reg "a") 2;
  let s = Json.to_string (Metrics.to_json reg) in
  Alcotest.(check string) "round-trips" s
    (Json.to_string (Json.parse_exn s));
  (* name-sorted: "a" printed before "b" *)
  let ia = String.index s 'a' and ib = String.index s 'b' in
  Alcotest.(check bool) "sorted sections" true (ia < ib)

(* ------------------------------------------------------------------ *)
(* domain safety: the race-regression tests                            *)
(* ------------------------------------------------------------------ *)

module Pool = Rrs_parallel.Pool

let hammer_domains = 4
let hammer_iters = 25_000

(* Shared-registry updates from several domains must lose nothing: on
   the old plain-[mutable] counters this test loses increments under
   true parallelism (read-modify-write tears), which is exactly the
   EXPERIMENTS.md contract violation this layer had. *)
let test_metrics_parallel_updates_lose_nothing () =
  let reg = Metrics.create () in
  let c = Metrics.counter reg "hits" in
  let t = Metrics.timer reg "spans" in
  let h = Metrics.histogram reg "obs" ~max_value:16 in
  let per_domain _ =
    for i = 1 to hammer_iters do
      Metrics.inc c 1;
      if i mod 100 = 0 then begin
        Metrics.observe h (i mod 17);
        ignore (Metrics.time t (fun () -> ()))
      end
    done
  in
  ignore (Pool.map ~domains:hammer_domains per_domain
            (List.init hammer_domains Fun.id));
  Alcotest.(check int) "no lost counter increments"
    (hammer_domains * hammer_iters) (Metrics.value c);
  Alcotest.(check int) "no lost spans"
    (hammer_domains * (hammer_iters / 100))
    (Metrics.timer_count t);
  Alcotest.(check int) "no lost observations"
    (hammer_domains * (hammer_iters / 100))
    (Rrs_stats.Histogram.count (Metrics.histogram_stats h))

let test_metrics_shards_merge_to_sequential_totals () =
  let items = List.init 40 (fun i -> i + 1) in
  (* per-domain shards, merged in input order *)
  let _, shards =
    Pool.map_reduce ~domains:hammer_domains
      ~init:(fun () -> Metrics.create ())
      ~f:(fun shard x ->
        Metrics.inc (Metrics.counter shard "total") x;
        Metrics.observe (Metrics.histogram shard "xs" ~max_value:64) x;
        ignore (Metrics.time (Metrics.timer shard "work") (fun () -> ())))
      items
  in
  let merged = Metrics.create () in
  List.iter (fun shard -> Metrics.merge_into ~into:merged shard) shards;
  let sequential = List.fold_left ( + ) 0 items in
  Alcotest.(check int) "merged counter = sequential sum" sequential
    (Metrics.value (Metrics.counter merged "total"));
  Alcotest.(check int) "merged histogram count" (List.length items)
    (Rrs_stats.Histogram.count
       (Metrics.histogram_stats (Metrics.histogram merged "xs" ~max_value:64)));
  Alcotest.(check int) "merged span count" (List.length items)
    (Metrics.timer_count (Metrics.timer merged "work"))

(* merge_into must preserve the full distributions, not just the
   counts: quantiles of the 4-domain sharded histogram and the Welford
   aggregate of the sharded timer equal a sequentially-built reference *)
let test_metrics_merge_preserves_distributions () =
  let items = List.init 200 (fun i -> i + 1) in
  let observe reg x =
    Metrics.observe (Metrics.histogram reg "lat" ~max_value:256) (x mod 97);
    (* timers only record real wall-clock spans, so the timer check
       below is on count/total additivity rather than exact values *)
    ignore (Metrics.time (Metrics.timer reg "work") (fun () -> ()))
  in
  let _, shards =
    Pool.map_reduce ~domains:hammer_domains
      ~init:(fun () -> Metrics.create ())
      ~f:(fun shard x -> observe shard x)
      items
  in
  let merged = Metrics.create () in
  List.iter (fun shard -> Metrics.merge_into ~into:merged shard) shards;
  let reference = Metrics.create () in
  List.iter (fun x -> observe reference x) items;
  let hist reg =
    Metrics.histogram_stats (Metrics.histogram reg "lat" ~max_value:256)
  in
  let mh = hist merged and rh = hist reference in
  List.iter
    (fun q ->
      Alcotest.(check int)
        (Printf.sprintf "merged q%.2f = sequential" q)
        (Rrs_stats.Histogram.quantile rh q)
        (Rrs_stats.Histogram.quantile mh q))
    [ 0.0; 0.25; 0.5; 0.95; 0.99; 1.0 ];
  Alcotest.(check int) "merged histogram count"
    (Rrs_stats.Histogram.count rh)
    (Rrs_stats.Histogram.count mh);
  let merged_stats = Metrics.timer_stats (Metrics.timer merged "work") in
  Alcotest.(check int) "merged timer count" (List.length items)
    (Rrs_stats.Running.count merged_stats);
  let shard_total =
    List.fold_left
      (fun acc shard -> acc +. Metrics.timer_total (Metrics.timer shard "work"))
      0. shards
  in
  Alcotest.(check bool) "merged timer total = sum of shards" true
    (Float.abs (Metrics.timer_total (Metrics.timer merged "work") -. shard_total)
    < 1e-9);
  Alcotest.(check bool) "merged mean finite" true
    (Float.is_finite (Rrs_stats.Running.mean merged_stats))

(* the torn-read regression (satellite of the profiling PR): snapshot
   reads taken while another domain is mid-update must always be
   consistent states — counts never go backwards, means stay finite *)
let test_stats_snapshot_reads_mid_run () =
  let reg = Metrics.create () in
  let t = Metrics.timer reg "spans" in
  let h = Metrics.histogram reg "obs" ~max_value:32 in
  let stop = Atomic.make false in
  let writer =
    Domain.spawn (fun () ->
        let i = ref 0 in
        while not (Atomic.get stop) do
          incr i;
          Metrics.observe h (!i mod 33);
          ignore (Metrics.time t (fun () -> ()))
        done)
  in
  let last_timer = ref 0 and last_hist = ref 0 in
  for _ = 1 to 2_000 do
    let ts = Metrics.timer_stats t in
    let n = Rrs_stats.Running.count ts in
    Alcotest.(check bool) "timer count monotone" true (n >= !last_timer);
    last_timer := n;
    if n > 0 then begin
      Alcotest.(check bool) "mean finite" true
        (Float.is_finite (Rrs_stats.Running.mean ts));
      Alcotest.(check bool) "variance nonnegative" true
        (Rrs_stats.Running.variance ts >= 0.)
    end;
    let hs = Metrics.histogram_stats h in
    let hn = Rrs_stats.Histogram.count hs in
    Alcotest.(check bool) "histogram count monotone" true (hn >= !last_hist);
    last_hist := hn;
    if hn > 0 then
      Alcotest.(check bool) "quantile within domain" true
        (Rrs_stats.Histogram.quantile hs 0.5 <= 32)
  done;
  Atomic.set stop true;
  Domain.join writer

let test_sink_jsonl_parallel_lines_not_torn () =
  let path = Filename.temp_file "rrs_obs" ".jsonl" in
  let per_domain = 500 in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          let sink = Sink.jsonl oc in
          ignore
            (Pool.map ~domains:hammer_domains
               (fun d ->
                 for i = 1 to per_domain do
                   Sink.emit sink
                     (Event.Drop { round = i; color = d; count = 1 })
                 done)
               (List.init hammer_domains Fun.id));
          Alcotest.(check int) "emitted count"
            (hammer_domains * per_domain) (Sink.count sink));
      let lines = In_channel.with_open_text path In_channel.input_lines in
      Alcotest.(check int) "one line per event"
        (hammer_domains * per_domain) (List.length lines);
      List.iter
        (fun l ->
          match Event.of_line l with
          | Ok _ -> ()
          | Error msg -> Alcotest.failf "torn/unparseable line %S: %s" l msg)
        lines)

let test_sink_memory_parallel_keeps_every_event () =
  let sink = Sink.memory () in
  let per_domain = 500 in
  ignore
    (Pool.map ~domains:hammer_domains
       (fun d ->
         for i = 1 to per_domain do
           Sink.emit sink (Event.Arrival { round = i; color = d; count = 1 })
         done)
       (List.init hammer_domains Fun.id));
  Alcotest.(check int) "count" (hammer_domains * per_domain) (Sink.count sink);
  Alcotest.(check int) "buffered" (hammer_domains * per_domain)
    (List.length (Sink.events sink))

(* ------------------------------------------------------------------ *)
(* run_summary artifacts                                               *)
(* ------------------------------------------------------------------ *)

let sample_summary =
  Run_summary.make ~id:"EXP-T" ~kind:"experiment" ~seed:7
    ~config:[ ("family", "router"); ("n", "8") ]
    ~reconfig_cost:352 ~drop_cost:407
    ~analysis:[ ("epochs", 19.0); ("ratio", 1.08125) ]
    ~timings:
      [
        { Run_summary.phase = "engine"; seconds = 0.01125; count = 1 };
        { Run_summary.phase = "validate"; seconds = 0.5; count = 2 };
      ]
    ()

let test_run_summary_roundtrip () =
  let line = Run_summary.to_line sample_summary in
  match Run_summary.of_line line with
  | Error msg -> Alcotest.fail msg
  | Ok s ->
      Alcotest.(check string) "byte-for-byte" line (Run_summary.to_line s);
      Alcotest.(check int) "total recomputed" 759 (Run_summary.total_cost s)

let test_run_summary_strip_timings () =
  let s =
    Run_summary.make ~id:"X" ~kind:"experiment"
      ~reconfig_cost:3 ~drop_cost:4
      ~analysis:[ ("engine_runs", 45.0); ("engine_seconds", 1.25) ]
      ~timings:[ { Run_summary.phase = "experiment"; seconds = 2.5; count = 1 } ]
      ()
  in
  let stripped = Run_summary.strip_timings s in
  Alcotest.(check int) "costs kept" 7 (Run_summary.total_cost stripped);
  Alcotest.(check (list (pair string (float 0.0)))) "wall time zeroed"
    [ ("engine_runs", 45.0); ("engine_seconds", 0.0) ]
    stripped.analysis;
  (match stripped.timings with
  | [ { phase = "experiment"; seconds = 0.0; count = 1 } ] -> ()
  | _ -> Alcotest.fail "timings shape");
  (* stripping is idempotent and canonical *)
  Alcotest.(check string) "idempotent"
    (Run_summary.to_line stripped)
    (Run_summary.to_line (Run_summary.strip_timings stripped))

let test_run_summary_load_skips_events () =
  let path = Filename.temp_file "rrs_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          let sink = Sink.jsonl oc in
          List.iter (Sink.emit sink) all_event_variants;
          Run_summary.write oc sample_summary;
          output_string oc "\n" (* blank lines are fine *));
      match Run_summary.load path with
      | Error msg -> Alcotest.fail msg
      | Ok [ s ] ->
          Alcotest.(check string) "the summary survives"
            (Run_summary.to_line sample_summary)
            (Run_summary.to_line s)
      | Ok l -> Alcotest.failf "expected 1 summary, got %d" (List.length l))

let test_run_summary_load_rejects_garbage () =
  let path = Filename.temp_file "rrs_obs" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Out_channel.with_open_text path (fun oc ->
          output_string oc "{\"type\":\"run_summary\"\n");
      match Run_summary.load path with
      | Error _ -> ()
      | Ok _ -> Alcotest.fail "malformed line accepted")

(* ------------------------------------------------------------------ *)
(* the per-round sampler reproduces the engine's accounting           *)
(* ------------------------------------------------------------------ *)

(* The sampler reads the engine's events, so its cumulative counts are
   the engine's under any projection, and its last sample (taken before
   the horizon round's executions) sees the backlog drain. *)
let check_sampler_matches label run =
  let m = Rrs_trace.Metrics.create () in
  let (r : Engine.result) = run (Rrs_trace.Metrics.attach m Sink.null) in
  let samples = Rrs_trace.Metrics.samples m in
  Alcotest.(check int) (label ^ ": one sample per round") r.rounds_simulated
    (List.length samples);
  match List.rev samples with
  | last :: _ ->
      Alcotest.(check int) (label ^ ": recolorings match engine")
        r.reconfigurations last.cumulative_recolorings;
      Alcotest.(check int) (label ^ ": drops match engine") r.dropped
        last.cumulative_drops;
      Alcotest.(check int) (label ^ ": drained at the horizon") 0 last.backlog
  | [] -> Alcotest.fail "no samples"

let test_metrics_recolorings_match_engine_identity () =
  let instance = (Option.get (Families.find "router")).build ~seed:4 in
  check_sampler_matches "identity" (fun sink ->
      Engine.run (Engine.config ~n:8 ~sink ()) instance Lru_edf.policy)

let test_metrics_recolorings_match_engine_projected () =
  (* the Distribute reduction: subcolors collapse, so the engine charges
     post-projection — the sampler agrees with no projection handed to
     it *)
  let instance = (Option.get (Families.find "oversized")).build ~seed:1 in
  let mapping = Distribute.transform instance in
  let cfg sink =
    Engine.config ~n:8 ~sink ~cost_projection:(Distribute.project mapping) ()
  in
  check_sampler_matches "projected" (fun sink ->
      Engine.run (cfg sink) mapping.sub_instance Lru_edf.policy)

let test_metrics_match_pipeline () =
  let instance = (Option.get (Families.find "unbatched")).build ~seed:1 in
  check_sampler_matches "pipeline" (fun sink ->
      Var_batch.run ~sink instance ~n:8)

(* ------------------------------------------------------------------ *)
(* flight recorder                                                     *)
(* ------------------------------------------------------------------ *)

module Flight_recorder = Rrs_obs.Flight_recorder
module Heartbeat = Rrs_obs.Heartbeat

let nth_event i = List.nth all_event_variants (i mod List.length all_event_variants)

let last_n n xs =
  let len = List.length xs in
  if len <= n then xs else List.filteri (fun i _ -> i >= len - n) xs

let test_recorder_retains_suffix () =
  let r = Flight_recorder.create ~capacity:8 () in
  let emitted = List.init 20 nth_event in
  List.iter (Flight_recorder.record r) emitted;
  Alcotest.(check int) "recorded total" 20 (Flight_recorder.events_recorded r);
  Alcotest.(check bool) "last 8, oldest first" true
    (Flight_recorder.recent r = last_n 8 emitted);
  (* under capacity: everything is retained *)
  let small = Flight_recorder.create ~capacity:64 () in
  List.iter (Flight_recorder.record small) emitted;
  Alcotest.(check bool) "under capacity keeps all" true
    (Flight_recorder.recent small = emitted)

(* Satellite property: for any capacity and any emission schedule
   spread across domains, the recorder's window is {e exactly} the
   last-N suffix of the full Sink.memory trace.  Phases alternate
   between the main domain and a freshly spawned one, with a join
   barrier between phases so the memory sink's order is the global
   sequence order; per-phase counts larger than the capacity exercise
   ring wraparound, multiple spawned phases exercise the multi-domain
   merge in [recent]. *)
let prop_recorder_suffix =
  QCheck.Test.make ~count:100
    ~name:"recorder window = last-N suffix of the full trace"
    QCheck.(
      pair (int_range 1 48) (list_of_size Gen.(int_range 0 8) (int_range 0 40)))
    (fun (cap, phases) ->
      let r = Flight_recorder.create ~capacity:cap () in
      let mem = Sink.memory () in
      let sink = Flight_recorder.attach r mem in
      let counter = ref 0 in
      List.iteri
        (fun pi count ->
          let emit () =
            for _ = 1 to count do
              Sink.emit sink (nth_event !counter);
              incr counter
            done
          in
          if pi mod 2 = 0 then emit ()
          else Domain.join (Domain.spawn emit))
        phases;
      let full = Sink.events mem in
      Flight_recorder.events_recorded r = List.length full
      && Flight_recorder.recent r = last_n cap full)

let test_recorder_dump_format () =
  let path = Filename.temp_file "rrs_dump" ".jsonl" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      let r = Flight_recorder.create ~capacity:4 ~snapshot_capacity:2 () in
      List.iter (Flight_recorder.record r) (List.init 10 nth_event);
      Flight_recorder.record_snapshot r (Json.Assoc [ ("beat", Json.Int 1) ]);
      Flight_recorder.record_snapshot r (Json.Assoc [ ("beat", Json.Int 2) ]);
      Flight_recorder.record_snapshot r (Json.Assoc [ ("beat", Json.Int 3) ]);
      Flight_recorder.dump ~name:"unit" ~reason:"because" r path;
      match In_channel.with_open_text path In_channel.input_lines with
      | header :: rest ->
          let json = Json.parse_exn header in
          let int_field key =
            Option.get (Json.member key json) |> Json.to_int |> Result.get_ok
          in
          Alcotest.(check string) "type" "flight_recorder"
            (Option.get (Json.member "type" json)
            |> Json.to_string_lit |> Result.get_ok);
          Alcotest.(check int) "events_recorded" 10 (int_field "events_recorded");
          Alcotest.(check int) "events_retained" 4 (int_field "events_retained");
          Alcotest.(check int) "snapshots" 2 (int_field "snapshots");
          let events, snaps =
            List.partition (fun l -> Result.is_ok (Event.of_line l)) rest
          in
          Alcotest.(check bool) "events are the window" true
            (List.map (fun l -> Result.get_ok (Event.of_line l)) events
            = Flight_recorder.recent r);
          (* snapshot ring capacity 2: beats 2 and 3 survive *)
          Alcotest.(check (list string)) "snapshot suffix"
            [ "{\"beat\":2}"; "{\"beat\":3}" ]
            snaps
      | [] -> Alcotest.fail "empty dump")

(* ------------------------------------------------------------------ *)
(* heartbeat                                                           *)
(* ------------------------------------------------------------------ *)

(* One round through an attach: a charged recoloring, three executions
   and a drop, then the round end at Δ = 2. *)
let observe hb ~round =
  let sink = Heartbeat.attach hb Sink.null in
  List.iter (Sink.emit sink)
    [
      Event.Drop { round; color = 0; count = 1 };
      Event.Reconfigure
        { round; mini_round = 0; resource = 0; from_color = -1; to_color = 0 };
      Event.Execute { round; mini_round = 0; resource = 0; color = 0 };
      Event.Execute { round; mini_round = 0; resource = 1; color = 0 };
      Event.Execute { round; mini_round = 0; resource = 2; color = 0 };
      Event.Round_end { round; delta = 2; latency_us = 5 };
    ]

let test_heartbeat_round_cadence () =
  let hb = Heartbeat.create ~every_rounds:4 () in
  for round = 1 to 10 do
    observe hb ~round
  done;
  Alcotest.(check int) "beats at rounds 4 and 8" 2 (Heartbeat.beats hb);
  Alcotest.(check int) "rounds observed" 10 (Heartbeat.rounds_observed hb);
  Heartbeat.beat hb;
  Alcotest.(check int) "forced beat" 3 (Heartbeat.beats hb);
  let line = Option.get (Heartbeat.last_line hb) in
  let json = Json.parse_exn line in
  let int_field key =
    Option.get (Json.member key json) |> Json.to_int |> Result.get_ok
  in
  Alcotest.(check string) "line type" "heartbeat"
    (Option.get (Json.member "type" json)
    |> Json.to_string_lit |> Result.get_ok);
  Alcotest.(check int) "round reached" 10 (int_field "round");
  (* delta 2 x 1 recoloring x 10 rounds; drops cost 1 each *)
  Alcotest.(check int) "reconfig_cost" 20 (int_field "reconfig_cost");
  Alcotest.(check int) "drop_cost" 10 (int_field "drop_cost");
  Alcotest.(check int) "total_cost" 30 (int_field "total_cost");
  Alcotest.(check int) "executed" 30 (int_field "executed")

let test_heartbeat_time_cadence () =
  let now = ref 0.0 in
  let hb =
    Heartbeat.create ~every_rounds:max_int ~every_seconds:1.0
      ~clock:(fun () -> !now)
      ()
  in
  observe hb ~round:1;
  observe hb ~round:2;
  Alcotest.(check int) "no beat before the deadline" 0 (Heartbeat.beats hb);
  now := 1.5;
  observe hb ~round:3;
  Alcotest.(check int) "beat once time passed" 1 (Heartbeat.beats hb);
  observe hb ~round:4;
  Alcotest.(check int) "window restarts" 1 (Heartbeat.beats hb);
  now := 3.0;
  observe hb ~round:5;
  Alcotest.(check int) "second deadline" 2 (Heartbeat.beats hb)

let test_heartbeat_stream_and_status () =
  let path = Filename.temp_file "rrs_hb" ".jsonl" in
  let status = path ^ ".status" in
  Fun.protect
    ~finally:(fun () ->
      Sys.remove path;
      if Sys.file_exists status then Sys.remove status)
    (fun () ->
      let hb =
        Heartbeat.create ~every_rounds:2 ~path ~status_path:status ()
      in
      for round = 1 to 5 do
        observe hb ~round
      done;
      Heartbeat.finish hb;
      Heartbeat.finish hb (* idempotent *);
      let lines = In_channel.with_open_text path In_channel.input_lines in
      (* beats at rounds 2 and 4, plus the final beat for round 5 *)
      Alcotest.(check int) "stream lines" 3 (List.length lines);
      List.iter
        (fun l ->
          Alcotest.(check string) "parses as heartbeat" "heartbeat"
            (Option.get (Json.member "type" (Json.parse_exn l))
            |> Json.to_string_lit |> Result.get_ok))
        lines;
      let final = Json.parse_exn (List.nth lines 2) in
      Alcotest.(check bool) "final flag" true
        (Json.member "final" final = Some (Json.Bool true));
      let status_line =
        String.trim
          (In_channel.with_open_text status In_channel.input_all)
      in
      Alcotest.(check string) "status = last line" status_line
        (Option.get (Heartbeat.last_line hb)))

let test_heartbeat_feeds_ambient_recorder () =
  let r = Flight_recorder.create () in
  Flight_recorder.with_recorder r (fun () ->
      let hb = Heartbeat.create ~every_rounds:1 () in
      for round = 1 to 3 do
        observe hb ~round
      done);
  Alcotest.(check int) "each beat snapshotted" 3
    (List.length (Flight_recorder.snapshots r))

(* ------------------------------------------------------------------ *)
(* Prometheus exposition                                               *)
(* ------------------------------------------------------------------ *)

let contains ~needle haystack =
  let nl = String.length needle and hl = String.length haystack in
  let rec go i = i + nl <= hl && (String.sub haystack i nl = needle || go (i + 1)) in
  go 0

let test_metrics_expose () =
  let reg = Metrics.create () in
  Metrics.inc (Metrics.counter reg "events.total") 7;
  Metrics.set (Metrics.gauge reg "alloc/minor") 12.5;
  let h = Metrics.histogram reg "latency.us" ~max_value:1000 in
  for v = 1 to 100 do
    Metrics.observe h v
  done;
  let text = Metrics.expose reg in
  (* names folded into the Prometheus grammar *)
  Alcotest.(check bool) "counter line" true
    (contains ~needle:"# TYPE events_total counter" text
    && contains ~needle:"events_total 7" text);
  Alcotest.(check bool) "gauge line" true
    (contains ~needle:"alloc_minor 12.5" text);
  Alcotest.(check bool) "summary quantile" true
    (contains ~needle:"latency_us{quantile=\"0.5\"}" text);
  Alcotest.(check bool) "summary count" true
    (contains ~needle:"latency_us_count 100" text);
  (* an unset gauge must not render a NaN sample *)
  ignore (Metrics.gauge reg "never.set");
  Alcotest.(check bool) "unset gauge omitted" false
    (contains ~needle:"never_set" (Metrics.expose reg));
  Alcotest.(check bool) "no NaN anywhere" false
    (contains ~needle:"nan" (String.lowercase_ascii (Metrics.expose reg)))

let () =
  Alcotest.run "obs"
    [
      ( "json",
        [
          Alcotest.test_case "value round-trip" `Quick test_json_value_roundtrip;
          Alcotest.test_case "canonical strings" `Quick
            test_json_canonical_strings;
          Alcotest.test_case "rejects malformed" `Quick
            test_json_rejects_malformed;
        ] );
      ( "events",
        [
          Alcotest.test_case "all variants round-trip" `Quick
            test_event_roundtrip;
        ] );
      ( "sinks",
        [
          Alcotest.test_case "null is disabled" `Quick test_sink_null_is_disabled;
          Alcotest.test_case "memory preserves order" `Quick
            test_sink_memory_preserves_order;
          Alcotest.test_case "jsonl parses back" `Quick
            test_sink_jsonl_lines_parse_back;
        ] );
      ( "engine tracing",
        [
          Alcotest.test_case "null vs memory parity" `Quick
            test_null_vs_memory_parity;
          Alcotest.test_case "events reproduce counters" `Quick
            test_events_reproduce_counters;
          Alcotest.test_case "rounds are monotone" `Quick
            test_event_rounds_are_monotone;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "instruments" `Quick test_metrics_instruments;
          Alcotest.test_case "timer monotone" `Quick test_metrics_timer_monotone;
          Alcotest.test_case "canonical json" `Quick
            test_metrics_json_is_canonical;
          Alcotest.test_case "recolorings: identity" `Quick
            test_metrics_recolorings_match_engine_identity;
          Alcotest.test_case "recolorings: projected" `Quick
            test_metrics_recolorings_match_engine_projected;
          Alcotest.test_case "sampler: pipeline" `Quick
            test_metrics_match_pipeline;
        ] );
      ( "domain safety",
        [
          Alcotest.test_case "parallel updates lose nothing" `Quick
            test_metrics_parallel_updates_lose_nothing;
          Alcotest.test_case "merge preserves distributions" `Quick
            test_metrics_merge_preserves_distributions;
          Alcotest.test_case "snapshot reads mid-run" `Quick
            test_stats_snapshot_reads_mid_run;
          Alcotest.test_case "shards merge to sequential totals" `Quick
            test_metrics_shards_merge_to_sequential_totals;
          Alcotest.test_case "parallel jsonl lines not torn" `Quick
            test_sink_jsonl_parallel_lines_not_torn;
          Alcotest.test_case "parallel memory sink keeps all" `Quick
            test_sink_memory_parallel_keeps_every_event;
        ] );
      ( "flight recorder",
        [
          Alcotest.test_case "retains the last-N window" `Quick
            test_recorder_retains_suffix;
          QCheck_alcotest.to_alcotest prop_recorder_suffix;
          Alcotest.test_case "dump format" `Quick test_recorder_dump_format;
        ] );
      ( "heartbeat",
        [
          Alcotest.test_case "round cadence" `Quick test_heartbeat_round_cadence;
          Alcotest.test_case "time cadence (injected clock)" `Quick
            test_heartbeat_time_cadence;
          Alcotest.test_case "stream, status and final beat" `Quick
            test_heartbeat_stream_and_status;
          Alcotest.test_case "beats feed the ambient recorder" `Quick
            test_heartbeat_feeds_ambient_recorder;
          Alcotest.test_case "prometheus exposition" `Quick test_metrics_expose;
        ] );
      ( "run_summary",
        [
          Alcotest.test_case "byte round-trip" `Quick test_run_summary_roundtrip;
          Alcotest.test_case "strip_timings" `Quick
            test_run_summary_strip_timings;
          Alcotest.test_case "load skips events" `Quick
            test_run_summary_load_skips_events;
          Alcotest.test_case "load rejects garbage" `Quick
            test_run_summary_load_rejects_garbage;
        ] );
    ]
