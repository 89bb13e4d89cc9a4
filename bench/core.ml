(* The incremental-ranking core bench: the asymptotic evidence behind the
   delta-driven hot path (doc/PERFORMANCE.md).

   Part 1 — scaling: rounds/sec of ΔLRU-EDF, production (incremental)
   against the Rrs_oracle list-sort reference ("rebuild"), as the color
   universe grows.  The workload keeps the per-round change count
   constant (a fixed number of active colors per batch window, all
   delay bounds equal to the window length) so the reference's O(C)
   per-round scan is the only thing that grows with C.

   Part 2 — differential: every ranking policy and Par-EDF against its
   Rrs_oracle reference on every workload family plus the Appendix A/B
   adversarial constructions; any field of Engine.result differing
   (including final_cache and the full recorded schedule) counts as a
   divergence.

   Writes one run_summary JSONL line per scaling size plus one for the
   differential section to BENCH_core.json; exits nonzero on any
   divergence so CI can gate on it. *)

open Rrs_core
module Families = Rrs_workload.Families
module Adv = Rrs_workload.Adversarial
module Rng = Rrs_prng.Rng

let sizes = ref [ 256; 512; 1024; 2048; 4096; 65536 ]
let windows = ref 24
let active = ref 8
let delta = ref 4
let n = ref 8
let repeats = ref 3
let diff_seeds = ref 2
let rebuild_cap = ref 4096
let out = ref "BENCH_core.json"

let parse_sizes s =
  sizes :=
    List.map
      (fun part ->
        match int_of_string_opt (String.trim part) with
        | Some v when v >= 1 -> v
        | _ -> raise (Arg.Bad (Printf.sprintf "bad size %S" part)))
      (String.split_on_char ',' s)

let spec =
  [
    ("--sizes", Arg.String parse_sizes, "CSV color-universe sizes to sweep");
    ("--windows", Arg.Set_int windows, "INT batch windows per instance");
    ("--active", Arg.Set_int active, "INT active colors per window");
    ("--delta", Arg.Set_int delta, "INT reconfiguration cost");
    ("--n", Arg.Set_int n, "INT online resources (multiple of 4)");
    ("--repeats", Arg.Set_int repeats, "INT best-of timing repetitions");
    ("--diff-seeds", Arg.Set_int diff_seeds, "INT seeds per family (part 2)");
    ( "--rebuild-cap",
      Arg.Set_int rebuild_cap,
      "INT largest size that still times the O(C)-per-round reference \
       (above it rows are incremental-only)" );
    ("--out", Arg.Set_string out, "FILE JSONL artifact path");
  ]

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "core.exe: incremental-ranking scaling and differential bench"

(* ------------------------------------------------------------------ *)
(* Part 1: scaling                                                     *)
(* ------------------------------------------------------------------ *)

let ceil_pow2 x =
  let rec go p = if p >= x then p else go (2 * p) in
  go 1

(* All delay bounds equal the (power-of-two) window length W >= C, and
   each window hands [active] random colors a batch of [delta] jobs.
   Change events per round are therefore O(active) on average no matter
   how large C gets, while any per-round full scan pays O(C). *)
let scaling_instance ~num_colors ~seed =
  let w = ceil_pow2 num_colors in
  let rng = Rng.create ~seed in
  let batch = min w !delta in
  let arrivals = ref [] in
  for window = 0 to !windows - 1 do
    let chosen = Hashtbl.create (2 * !active) in
    while Hashtbl.length chosen < min !active num_colors do
      Hashtbl.replace chosen (Rng.int rng num_colors) ()
    done;
    Hashtbl.iter
      (fun color () ->
        arrivals :=
          { Types.round = window * w; color; count = batch } :: !arrivals)
      chosen
  done;
  Instance.create
    ~name:(Printf.sprintf "scaling-c%d" num_colors)
    ~delta:!delta
    ~delay:(Array.make num_colors w)
    ~arrivals:!arrivals ()

let best_of f =
  let best = ref infinity in
  let result = ref None in
  for _ = 1 to max 1 !repeats do
    let t0 = Unix.gettimeofday () in
    let r = f () in
    let dt = Unix.gettimeofday () -. t0 in
    result := Some r;
    if dt < !best then best := dt
  done;
  (Option.get !result, !best)

let run_scaling oc =
  print_endline
    "================================================================";
  Printf.printf
    " Scaling: dlru-edf rounds/sec vs colors (windows=%d, active=%d)\n"
    !windows !active;
  print_endline
    "================================================================";
  Printf.printf "%8s %10s %14s %14s %9s %12s\n" "colors" "rounds"
    "incr rnd/s" "rebuild rnd/s" "speedup" "rank_updates";
  let all_identical = ref true in
  List.iter
    (fun size ->
      let instance = scaling_instance ~num_colors:size ~seed:1 in
      let run policy () =
        Engine.run_policy (Engine.config ~n:!n ()) instance (policy ())
      in
      let registry = Rrs_obs.Metrics.create () in
      let incr_result, incr_seconds =
        best_of
          (run (fun () -> (Lru_edf.make ~registry instance ~n:!n).policy))
      in
      let updates =
        Rrs_obs.Metrics.value (Rrs_obs.Metrics.counter registry "ranking_update")
        / max 1 !repeats
      in
      (* the reference's per-round scan is Θ(C): above the cap a timing
         run would dominate the whole bench for no extra signal, so large
         sizes are incremental-only rows (the differential section still
         runs the reference on every instance it covers) *)
      let rebuild =
        if size <= !rebuild_cap then
          Some (best_of (run (fun () -> Rrs_oracle.dlru_edf instance ~n:!n)))
        else None
      in
      (* one extra instrumented run: the engine's own registry measures
         per-round latency and allocations (doc/PERFORMANCE.md); kept
         out of the [best_of] runs so rounds/sec stays unperturbed *)
      let engine_reg = Rrs_obs.Metrics.create () in
      ignore
        (Engine.run_policy
           (Engine.config ~n:!n ~registry:engine_reg ())
           instance
           (Lru_edf.policy instance ~n:!n));
      let latency =
        Rrs_obs.Metrics.histogram_stats
          (Rrs_obs.Metrics.histogram engine_reg "engine_round_latency_us"
             ~max_value:Engine.round_latency_max_us)
      in
      let q p = float_of_int (Rrs_stats.Histogram.quantile latency p) /. 1e6 in
      let gauge name =
        Rrs_obs.Metrics.gauge_value (Rrs_obs.Metrics.gauge engine_reg name)
      in
      let identical =
        match rebuild with
        | Some (rebuild_result, _) -> incr_result = rebuild_result
        | None -> true
      in
      if not identical then all_identical := false;
      let rounds = incr_result.rounds_simulated in
      let per_sec seconds = float_of_int rounds /. seconds in
      (match rebuild with
      | Some (_, rebuild_seconds) ->
          Printf.printf "%8d %10d %14.0f %14.0f %8.2fx %12d%s\n" size rounds
            (per_sec incr_seconds) (per_sec rebuild_seconds)
            (rebuild_seconds /. incr_seconds)
            updates
            (if identical then "" else "  DIVERGED")
      | None ->
          Printf.printf "%8d %10d %14.0f %14s %9s %12d\n" size rounds
            (per_sec incr_seconds) "-" "-" updates);
      Rrs_obs.Run_summary.write oc
        (Rrs_obs.Run_summary.make
           ~id:(Printf.sprintf "core-scaling-c%d" size)
           ~kind:"bench" ~seed:1
           ~config:
             [
               ("family", "scaling");
               ("policy", "dlru-edf");
               ("n", string_of_int !n);
               ("colors", string_of_int size);
               ("windows", string_of_int !windows);
               ("active", string_of_int !active);
             ]
           ~reconfig_cost:incr_result.cost.reconfig
           ~drop_cost:incr_result.cost.drop
           ~analysis:
             ([
                ("rounds", float_of_int rounds);
                ("incremental_seconds", incr_seconds);
                ("incremental_rounds_per_sec", per_sec incr_seconds);
                ("ranking_updates", float_of_int updates);
                ("round_latency_p50_seconds", q 0.5);
                ("round_latency_p95_seconds", q 0.95);
                ("round_latency_p99_seconds", q 0.99);
                ( "alloc_minor_words_per_round",
                  gauge "alloc_minor_words_per_round" );
                ( "alloc_promoted_words_per_round",
                  gauge "alloc_promoted_words_per_round" );
                ( "alloc_major_words_per_round",
                  gauge "alloc_major_words_per_round" );
              ]
             @
             match rebuild with
             | Some (_, rebuild_seconds) ->
                 [
                   ("rebuild_seconds", rebuild_seconds);
                   ("rebuild_rounds_per_sec", per_sec rebuild_seconds);
                   ("speedup", rebuild_seconds /. incr_seconds);
                   ("identical", if identical then 1.0 else 0.0);
                 ]
             | None -> [])
           ~timings:
             ({
                Rrs_obs.Run_summary.phase = "incremental";
                seconds = incr_seconds;
                count = max 1 !repeats;
              }
             ::
             (match rebuild with
             | Some (_, rebuild_seconds) ->
                 [
                   {
                     Rrs_obs.Run_summary.phase = "rebuild";
                     seconds = rebuild_seconds;
                     count = max 1 !repeats;
                   };
                 ]
             | None -> []))
           ()))
    !sizes;
  !all_identical

(* ------------------------------------------------------------------ *)
(* Part 2: differential                                                *)
(* ------------------------------------------------------------------ *)

(* (name, production, reference) *)
let ranking_policies : (string * Policy.factory * Policy.factory) list =
  [
    ("dlru", Delta_lru.policy, Rrs_oracle.dlru);
    ("edf", Edf_policy.policy, Rrs_oracle.edf);
    ("seq-edf", Edf_policy.seq_policy, Rrs_oracle.seq_edf);
    ("dlru-edf", Lru_edf.policy, Rrs_oracle.dlru_edf);
  ]

let diff_instances () =
  let from_families =
    List.concat_map
      (fun (f : Families.family) ->
        List.init !diff_seeds (fun i ->
            (Printf.sprintf "%s-s%d" f.id (i + 1), f.build ~seed:(i + 1))))
      Families.all
  in
  let adversarial =
    [
      ("appendix-a", Adv.dlru_instance { n = 8; delta = 2; j = 5; k = 7 });
      ("appendix-b", Adv.edf_instance { n = 2; delta = 3; j = 2; k = 6 });
    ]
  in
  from_families @ adversarial

let run_differential oc =
  print_endline
    "================================================================";
  print_endline " Differential: production vs Rrs_oracle, full-result equality";
  print_endline
    "================================================================";
  let cases = ref 0 in
  let divergences = ref 0 in
  let instances = diff_instances () in
  (* the live-telemetry plane rides along on the production runs only:
     their engine events stream into a flight recorder and a heartbeat
     observes every round, while the reference runs stay bare.  The
     full-result equality below therefore proves decision identity AND
     that recorder + heartbeat perturb nothing (the same
     non-perturbation standard as the Watchdog). *)
  let recorder = Rrs_obs.Flight_recorder.create ~capacity:256 () in
  let heartbeat = Rrs_obs.Heartbeat.create ~every_rounds:128 () in
  (* the result plus the schedule recorded off the engine's events *)
  let run ?(attach = Fun.id) ?heartbeat instance (factory : Policy.factory) =
    let events = Rrs_obs.Sink.memory () in
    let r =
      Engine.run_policy
        (Engine.config ~n:!n ~sink:(attach events) ?heartbeat ())
        instance (factory instance ~n:!n)
    in
    (r, Schedule.of_events ~n:!n ~mini_rounds:1 (Rrs_obs.Sink.events events))
  in
  List.iter
    (fun (iname, instance) ->
      List.iter
        (fun (pname, production, reference) ->
          incr cases;
          if
            run ~attach:(Rrs_obs.Flight_recorder.attach recorder) ~heartbeat
              instance production
            <> run instance reference
          then begin
            incr divergences;
            Printf.printf "DIVERGED: %s on %s\n" pname iname
          end)
        ranking_policies;
      (* Par-EDF runs below the engine *)
      incr cases;
      if Par_edf.run instance ~m:2 <> Rrs_oracle.par_edf instance ~m:2 then
      begin
        incr divergences;
        Printf.printf "DIVERGED: par-edf on %s\n" iname
      end)
    instances;
  Printf.printf "%d cases (%d instances x %d policies): %d divergences\n"
    !cases (List.length instances)
    (List.length ranking_policies + 1)
    !divergences;
  Printf.printf
    "live telemetry attached to the production runs: %d events recorded, %d \
     heartbeats\n"
    (Rrs_obs.Flight_recorder.events_recorded recorder)
    (Rrs_obs.Heartbeat.beats heartbeat);
  Rrs_obs.Run_summary.write oc
    (Rrs_obs.Run_summary.make ~id:"core-differential" ~kind:"bench"
       ~config:
         [
           ("policies", "dlru,edf,seq-edf,dlru-edf,par-edf");
           ("instances", string_of_int (List.length instances));
           ("n", string_of_int !n);
           ("seeds_per_family", string_of_int !diff_seeds);
         ]
       ~analysis:
         [
           ("cases", float_of_int !cases);
           ("divergences", float_of_int !divergences);
           ( "recorder_events",
             float_of_int (Rrs_obs.Flight_recorder.events_recorded recorder)
           );
           ( "heartbeat_rounds",
             float_of_int (Rrs_obs.Heartbeat.rounds_observed heartbeat) );
         ]
       ());
  !divergences = 0

let () =
  let ok =
    Out_channel.with_open_text !out (fun oc ->
        let scaling_ok = run_scaling oc in
        let diff_ok = run_differential oc in
        scaling_ok && diff_ok)
  in
  Printf.printf "run summaries written to %s\n" !out;
  if not ok then begin
    print_endline "core bench: DIVERGENCE DETECTED";
    exit 1
  end;
  print_endline "core bench: done"
