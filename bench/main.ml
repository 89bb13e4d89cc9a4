(* The benchmark harness.

   Part 1 regenerates every experiment of the reproduction (the paper has
   no tables/figures of its own; each experiment id maps to a theorem,
   lemma or appendix construction — see DESIGN.md §5 and EXPERIMENTS.md).

   Part 2 runs Bechamel microbenchmarks for the engineering-side
   questions: engine throughput per policy, reduction overhead, and the
   hot data structures. *)

open Bechamel
open Rrs_core
module Families = Rrs_workload.Families
module Adv = Rrs_workload.Adversarial
module Rng = Rrs_prng.Rng

(* ------------------------------------------------------------------ *)
(* Part 1: experiments                                                 *)
(* ------------------------------------------------------------------ *)

(* Every experiment also appends its canonical run_summary line to the
   JSONL artifact (BENCH_obs.json), so a bench run leaves a
   machine-readable record next to the printed log. *)
let run_experiments oc =
  print_endline "================================================================";
  print_endline " Reproduction experiments (one per paper claim; DESIGN.md §5)";
  print_endline "================================================================";
  List.iter
    (fun id ->
      match Rrs_experiments.Registry.run_summarized id with
      | Some { Rrs_experiments.Registry.outcome; summary; _ } ->
          Rrs_experiments.Harness.print outcome;
          Rrs_obs.Run_summary.write oc summary
      | None -> ())
    (Rrs_experiments.Registry.ids ())

(* The whole-suite parallelism question: the 13 experiments spread over
   N domains (their inner sweeps then degrade to sequential — see the
   nesting note in Rrs_parallel.Pool) against a fully sequential run of
   the same suite on the same seeds.  Domain-safe telemetry is what
   makes the parallel run legitimate: both passes produce identical
   cost totals, so the record compares equal work.  Both passes run
   after [run_experiments], i.e. equally warm. *)
let parallel_speedup oc =
  print_endline "================================================================";
  print_endline " Parallel experiment suite (sequential vs N-domain wall time)";
  print_endline "================================================================";
  let ids = Rrs_experiments.Registry.ids () in
  let timed f =
    let t0 = Unix.gettimeofday () in
    let r = f () in
    (r, Unix.gettimeofday () -. t0)
  in
  let seq_results, seq_seconds =
    timed (fun () ->
        Rrs_parallel.Pool.sequential (fun () ->
            Rrs_experiments.Registry.run_many ~jobs:1 ids))
  in
  let jobs = Rrs_parallel.Pool.num_domains () in
  let par_results, par_seconds =
    timed (fun () -> Rrs_experiments.Registry.run_many ~jobs ids)
  in
  let identical =
    List.for_all2
      (fun (_, a) (_, b) ->
        match (a, b) with
        | ( Ok { Rrs_experiments.Registry.summary = a; _ },
            Ok { Rrs_experiments.Registry.summary = b; _ } ) ->
            Rrs_obs.Run_summary.(
              to_line (strip_timings a) = to_line (strip_timings b))
        | _ -> false)
      seq_results par_results
  in
  if not identical then
    print_endline "WARNING: parallel artifacts diverge from sequential!";
  let speedup = seq_seconds /. par_seconds in
  Printf.printf "sequential: %.3f s\n%d domains:  %.3f s  (speedup %.2fx)\n"
    seq_seconds jobs par_seconds speedup;
  Rrs_obs.Run_summary.write oc
    (Rrs_obs.Run_summary.make ~id:"parallel-speedup" ~kind:"bench"
       ~config:
         [
           ("experiments", string_of_int (List.length ids));
           ("jobs", string_of_int jobs);
           ("artifacts_identical", if identical then "true" else "false");
         ]
       ~analysis:
         [
           ("sequential_seconds", seq_seconds);
           ("parallel_seconds", par_seconds);
           ("speedup", speedup);
           ("jobs", float_of_int jobs);
         ]
       ~timings:
         [
           {
             Rrs_obs.Run_summary.phase = "sequential";
             seconds = seq_seconds;
             count = List.length ids;
           };
           {
             Rrs_obs.Run_summary.phase = "parallel";
             seconds = par_seconds;
             count = List.length ids;
           };
         ]
       ())

(* ------------------------------------------------------------------ *)
(* Part 2: microbenchmarks                                             *)
(* ------------------------------------------------------------------ *)

let uniform_instance =
  (Option.get (Families.find "uniform")).build ~seed:1

let router_instance = (Option.get (Families.find "router")).build ~seed:1

let oversized_instance =
  (Option.get (Families.find "oversized")).build ~seed:1

let unbatched_instance =
  (Option.get (Families.find "unbatched")).build ~seed:1

let adversarial_instance =
  Adv.dlru_instance { n = 8; delta = 2; j = 5; k = 7 }

let bench_policy name instance factory =
  Test.make ~name (Staged.stage (fun () ->
      ignore (Engine.run (Engine.config ~n:8 ()) instance factory)))

let engine_tests =
  Test.make_grouped ~name:"engine"
    [
      bench_policy "lru-edf/uniform" uniform_instance Lru_edf.policy;
      bench_policy "lru-edf/router" router_instance Lru_edf.policy;
      bench_policy "lru-edf/adversarial" adversarial_instance Lru_edf.policy;
      bench_policy "dlru/uniform" uniform_instance Delta_lru.policy;
      bench_policy "edf/uniform" uniform_instance Edf_policy.policy;
      bench_policy "static/uniform" uniform_instance (Static_policy.static [ 0 ]);
      bench_policy "greedy-backlog/uniform" uniform_instance
        Naive_policies.greedy_backlog;
      Test.make ~name:"par-edf/uniform"
        (Staged.stage (fun () -> ignore (Par_edf.run uniform_instance ~m:2)));
    ]

let reduction_tests =
  (* constructive transformations need a recorded input schedule *)
  let offline_input =
    let sink = Rrs_obs.Sink.memory () in
    ignore
      (Engine.run (Engine.config ~n:2 ~sink ()) uniform_instance
         (Offline_heuristics.interval_plan uniform_instance ~m:2 ~window:16));
    Schedule.of_events ~n:2 ~mini_rounds:1 (Rrs_obs.Sink.events sink)
  in
  let aggregate_mapping = Distribute.transform uniform_instance in
  Test.make_grouped ~name:"reductions"
    [
      Test.make ~name:"distribute/transform"
        (Staged.stage (fun () ->
             ignore (Distribute.transform oversized_instance)));
      Test.make ~name:"distribute/full-run"
        (Staged.stage (fun () -> ignore (Distribute.run oversized_instance ~n:8)));
      Test.make ~name:"varbatch/transform"
        (Staged.stage (fun () -> ignore (Var_batch.transform unbatched_instance)));
      Test.make ~name:"varbatch/full-run"
        (Staged.stage (fun () -> ignore (Var_batch.run unbatched_instance ~n:8)));
      Test.make ~name:"aggregate/transform"
        (Staged.stage (fun () ->
             ignore
               (Aggregate.transform uniform_instance ~mapping:aggregate_mapping
                  offline_input)));
      Test.make ~name:"punctual/transform"
        (Staged.stage (fun () ->
             ignore (Punctual.make_punctual uniform_instance offline_input)));
    ]

let dstruct_tests =
  let heap_input = Array.init 1024 (fun i -> (i * 7919) mod 1024) in
  Test.make_grouped ~name:"dstruct"
    [
      Test.make ~name:"int-heap/1k-push-pop"
        (Staged.stage (fun () ->
             let h = Rrs_dstruct.Int_heap.create () in
             Array.iter (Rrs_dstruct.Int_heap.add h) heap_input;
             while not (Rrs_dstruct.Int_heap.is_empty h) do
               ignore (Rrs_dstruct.Int_heap.pop_min h)
             done));
      Test.make ~name:"int-indexed-heap/1k-update-pop"
        (Staged.stage (fun () ->
             let module H = Rrs_dstruct.Int_indexed_heap in
             let h = H.create ~capacity:1024 in
             Array.iteri (fun k p -> H.update h k p) heap_input;
             Array.iteri (fun k p -> H.update h k (p * 3 mod 1024)) heap_input;
             while not (H.is_empty h) do
               ignore (H.pop_min h)
             done));
      Test.make ~name:"fenwick/1k-add-search"
        (Staged.stage (fun () ->
             let f = Rrs_dstruct.Fenwick.create ~size:1024 in
             Array.iter (fun v -> Rrs_dstruct.Fenwick.add f v 1) heap_input;
             for k = 1 to 512 do
               ignore (Rrs_dstruct.Fenwick.search f k)
             done));
    ]

let workload_tests =
  Test.make_grouped ~name:"workload"
    [
      Test.make ~name:"generate/uniform"
        (Staged.stage (fun () ->
             ignore ((Option.get (Families.find "uniform")).build ~seed:3)));
      Test.make ~name:"generate/datacenter"
        (Staged.stage (fun () ->
             ignore ((Option.get (Families.find "datacenter")).build ~seed:3)));
      Test.make ~name:"prng/zipf-4k"
        (Staged.stage (fun () ->
             let rng = Rng.create ~seed:9 in
             for _ = 1 to 4096 do
               ignore (Rng.zipf rng ~n:64 ~s:1.1)
             done));
    ]

let run_microbenchmarks () =
  print_endline "================================================================";
  print_endline " Bechamel microbenchmarks (ns per run, OLS on monotonic clock)";
  print_endline "================================================================";
  let all_tests =
    Test.make_grouped ~name:"rrs"
      [ engine_tests; reduction_tests; dstruct_tests; workload_tests ]
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instances = [ Toolkit.Instance.monotonic_clock ] in
  let cfg =
    Benchmark.cfg ~limit:200 ~quota:(Time.second 0.25) ~kde:None ()
  in
  let raw = Benchmark.all cfg instances all_tests in
  let results = Analyze.all ols Toolkit.Instance.monotonic_clock raw in
  let rows = Hashtbl.fold (fun name ols acc -> (name, ols) :: acc) results [] in
  let table = Rrs_report.Table.create ~columns:[ "benchmark"; "time/run" ] in
  List.iter
    (fun (name, ols) ->
      let cell =
        match Analyze.OLS.estimates ols with
        | Some (t :: _) ->
            if t > 1e6 then Printf.sprintf "%.2f ms" (t /. 1e6)
            else if t > 1e3 then Printf.sprintf "%.2f us" (t /. 1e3)
            else Printf.sprintf "%.0f ns" t
        | Some [] | None -> "n/a"
      in
      Rrs_report.Table.add_row table [ name; cell ])
    (List.sort compare rows);
  Rrs_report.Table.print table

(* ------------------------------------------------------------------ *)
(* Part 3: tracing overhead                                            *)
(* ------------------------------------------------------------------ *)

(* The hard requirement on the observability layer: with the default
   Sink.null the engine pays one branch per potential event and no
   allocation, so the hot path must not regress.  We time the same
   engine run against the null sink and against a memory sink (every
   event materialised) and report both, plus their ratio, in the
   artifact.  Best-of-[repeats] wall time suppresses scheduler noise. *)
let sink_overhead oc =
  print_endline "================================================================";
  print_endline " Tracing overhead (null sink vs memory sink, dlru-edf/router)";
  print_endline "================================================================";
  let repeats = 10 in
  let best_of f =
    let best = ref infinity in
    for _ = 1 to repeats do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let run sink =
    ignore (Engine.run (Engine.config ~n:8 ~sink ()) router_instance Lru_edf.policy)
  in
  let null_seconds = best_of (fun () -> run Rrs_obs.Sink.null) in
  let events = ref 0 in
  let memory_seconds =
    best_of (fun () ->
        let sink = Rrs_obs.Sink.memory () in
        run sink;
        events := Rrs_obs.Sink.count sink)
  in
  let overhead_pct = (memory_seconds -. null_seconds) /. null_seconds *. 100. in
  Printf.printf "null sink:   %.3f ms/run\n" (null_seconds *. 1e3);
  Printf.printf "memory sink: %.3f ms/run (%d events, %+.1f%%)\n"
    (memory_seconds *. 1e3) !events overhead_pct;
  Rrs_obs.Run_summary.write oc
    (Rrs_obs.Run_summary.make ~id:"sink-overhead" ~kind:"bench"
       ~config:
         [
           ("family", "router");
           ("policy", "dlru-edf");
           ("n", "8");
           ("repeats", string_of_int repeats);
         ]
       ~analysis:
         [
           ("null_seconds", null_seconds);
           ("memory_seconds", memory_seconds);
           ("overhead_pct", overhead_pct);
           ("events", float_of_int !events);
         ]
       ~timings:
         [
           { Rrs_obs.Run_summary.phase = "null"; seconds = null_seconds; count = repeats };
           {
             Rrs_obs.Run_summary.phase = "memory";
             seconds = memory_seconds;
             count = repeats;
           };
         ]
       ());
  null_seconds

(* The live-telemetry plane (flight recorder ring + heartbeat
   accounting) must cost no more than full tracing: the recorder is a
   bounded overwrite of what the memory sink retains unboundedly, and
   the heartbeat adds integer accumulation per round plus one beat
   every [every_rounds].  Timed against the same run as above; the
   null-sink baseline is shared so the percentages are comparable. *)
let live_telemetry_overhead oc ~null_seconds =
  print_endline "================================================================";
  print_endline " Live telemetry overhead (flight recorder + heartbeat)";
  print_endline "================================================================";
  let repeats = 10 in
  let best_of f =
    let best = ref infinity in
    for _ = 1 to repeats do
      let t0 = Unix.gettimeofday () in
      f ();
      let dt = Unix.gettimeofday () -. t0 in
      if dt < !best then best := dt
    done;
    !best
  in
  let events = ref 0 in
  let recorder_seconds =
    best_of (fun () ->
        let r = Rrs_obs.Flight_recorder.create () in
        ignore
          (Engine.run
             (Engine.config ~n:8 ~sink:(Rrs_obs.Flight_recorder.sink r) ())
             router_instance Lru_edf.policy);
        events := Rrs_obs.Flight_recorder.events_recorded r)
  in
  let beats = ref 0 in
  let both_seconds =
    best_of (fun () ->
        let r = Rrs_obs.Flight_recorder.create () in
        let hb = Rrs_obs.Heartbeat.create ~every_rounds:64 () in
        ignore
          (Engine.run
             (Engine.config ~n:8
                ~sink:
                  (Rrs_obs.Heartbeat.attach hb
                     (Rrs_obs.Flight_recorder.sink r))
                ())
             router_instance Lru_edf.policy);
        beats := Rrs_obs.Heartbeat.beats hb)
  in
  let pct x = (x -. null_seconds) /. null_seconds *. 100. in
  Printf.printf "recorder sink:        %.3f ms/run (%d events, %+.1f%%)\n"
    (recorder_seconds *. 1e3) !events (pct recorder_seconds);
  Printf.printf "recorder + heartbeat: %.3f ms/run (%d beats, %+.1f%%)\n"
    (both_seconds *. 1e3) !beats (pct both_seconds);
  Rrs_obs.Run_summary.write oc
    (Rrs_obs.Run_summary.make ~id:"live-telemetry-overhead" ~kind:"bench"
       ~config:
         [
           ("family", "router");
           ("policy", "dlru-edf");
           ("n", "8");
           ("repeats", string_of_int repeats);
           ("heartbeat_every", "64");
         ]
       ~analysis:
         [
           ("null_seconds", null_seconds);
           ("recorder_seconds", recorder_seconds);
           ("recorder_heartbeat_seconds", both_seconds);
           ("recorder_overhead_pct", pct recorder_seconds);
           ("recorder_heartbeat_overhead_pct", pct both_seconds);
           ("events", float_of_int !events);
           ("beats", float_of_int !beats);
         ]
       ~timings:
         [
           {
             Rrs_obs.Run_summary.phase = "recorder";
             seconds = recorder_seconds;
             count = repeats;
           };
           {
             Rrs_obs.Run_summary.phase = "recorder_heartbeat";
             seconds = both_seconds;
             count = repeats;
           };
         ]
       ())

let () =
  Out_channel.with_open_text "BENCH_obs.json" (fun oc ->
      run_experiments oc;
      parallel_speedup oc;
      run_microbenchmarks ();
      let null_seconds = sink_overhead oc in
      live_telemetry_overhead oc ~null_seconds);
  print_endline "run summaries written to BENCH_obs.json";
  print_endline "bench: done"
