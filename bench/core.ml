(* The incremental-ranking core bench: the asymptotic evidence behind the
   delta-driven hot path (doc/PERFORMANCE.md).

   Part 1 — scaling: rounds/sec of ΔLRU-EDF, production (incremental)
   against the Rrs_oracle list-sort reference ("rebuild"), as the color
   universe grows.  The workload keeps the per-round change count
   constant (a fixed number of active colors per batch window, all
   delay bounds equal to the window length) so the reference's O(C)
   per-round scan is the only thing that grows with C.

   Part 1b — loaded: the same policy under perfbench's [zipf] load
   (1024 colors, n = 64, ~200 jobs and ~160 drops per round), driven
   as `rrs serve` drives it: a streamed session fed 64 rounds ahead,
   then stepped 64 rounds.  Reports minor words per round, per job and
   per feed, and rounds/sec of the steps.

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

(* One timed arm: its last result, its best seconds per run so far and
   the runs made. *)
type arm = {
  run : unit -> Engine.result;
  mutable result : Engine.result option;
  mutable best : float;
  mutable runs : int;
}

let arm run = { run; result = None; best = infinity; runs = 0 }

(* A block runs an arm at least once and until this long has passed:
   an incremental run at a few hundred colors takes well under a
   millisecond, too short to time alone. *)
let block_seconds = 0.02

(* Best of [repeats] blocks per arm, the arms' blocks alternating, each
   block's time taken per run.  Alternation lets a drift of the
   machine's speed reach every arm alike, so their ratio (the speedup)
   holds still where their rates do not.  A full major collection
   before each block starts every arm from the same heap, so no arm
   pays for the garbage the one before it left. *)
let time_interleaved arms =
  for _ = 1 to max 1 !repeats do
    List.iter
      (fun a ->
        Gc.full_major ();
        let t0 = Unix.gettimeofday () in
        let rec go k =
          a.result <- Some (a.run ());
          let dt = Unix.gettimeofday () -. t0 in
          if dt < block_seconds then go (k + 1) else (k, dt)
        in
        let k, dt = go 1 in
        a.runs <- a.runs + k;
        a.best <- Float.min a.best (dt /. float_of_int k))
      arms
  done

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
      let incr =
        arm (run (fun () -> (Lru_edf.make ~registry instance ~n:!n).policy))
      in
      (* the reference's per-round scan is Θ(C): above the cap a timing
         run would dominate the whole bench for no extra signal, so large
         sizes are incremental-only rows (the differential section still
         runs the reference on every instance it covers) *)
      let rebuild =
        if size <= !rebuild_cap then
          Some (arm (run (fun () -> Rrs_oracle.dlru_edf instance ~n:!n)))
        else None
      in
      time_interleaved (incr :: Option.to_list rebuild);
      let incr_result = Option.get incr.result and incr_seconds = incr.best in
      let rebuild =
        Option.map (fun a -> (Option.get a.result, a.best)) rebuild
      in
      let updates =
        Rrs_obs.Metrics.value (Rrs_obs.Metrics.counter registry "ranking_update")
        / incr.runs
      in
      (* two extra runs, kept out of the timed runs so rounds/sec
         stays unperturbed (doc/PERFORMANCE.md): the GC counters read
         around the steps of a Sink.null session give allocations per
         round with nothing but engine rounds in the window, and a
         separately timed pass gives the round-latency percentiles *)
      let rounds = instance.horizon + 1 in
      let session () =
        Engine.Session.of_instance (Engine.config ~n:!n ()) instance
          (Lru_edf.policy instance ~n:!n)
      in
      (* the runtime adds a direct major allocation to the counters at
         the next minor collection, so collecting first keeps each one
         in the window where it was made *)
      let gc_words () =
        Gc.minor ();
        let { Gc.promoted_words; major_words; _ } = Gc.quick_stat () in
        [| Gc.minor_words (); promoted_words; major_words |]
      in
      let alloc =
        let s = session () in
        let gc0 = gc_words () in
        for _ = 1 to rounds do
          Engine.Session.step s
        done;
        let gc1 = gc_words () in
        ignore (Engine.Session.finish ~expect_drained:true s);
        fun i -> (gc1.(i) -. gc0.(i)) /. float_of_int rounds
      in
      let latency_us =
        let s = session () in
        let lat =
          Array.init rounds (fun _ ->
              let t0 = Unix.gettimeofday () in
              Engine.Session.step s;
              int_of_float ((Unix.gettimeofday () -. t0) *. 1e6))
        in
        ignore (Engine.Session.finish ~expect_drained:true s);
        Array.sort Int.compare lat;
        lat
      in
      (* the rank convention of Rrs_stats.Histogram.quantile *)
      let q p =
        let rank = max 1 (int_of_float (ceil (p *. float_of_int rounds))) in
        float_of_int latency_us.(rank - 1) /. 1e6
      in
      let identical =
        match rebuild with
        | Some (rebuild_result, _) -> incr_result = rebuild_result
        | None -> true
      in
      if not identical then all_identical := false;
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
                ("alloc_minor_words_per_round", alloc 0);
                ("alloc_promoted_words_per_round", alloc 1);
                ("alloc_major_words_per_round", alloc 2);
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
(* Part 1b: loaded                                                     *)
(* ------------------------------------------------------------------ *)

let loaded_colors = 1024
let loaded_n = 64
let loaded_chunk = 64

let run_loaded oc =
  let family = Option.get (Families.find "zipf") in
  let instance =
    match Families.scale_to family ~num_colors:loaded_colors ~seed:1 with
    | Ok i -> i
    | Error e -> failwith (Families.string_of_scale_error e)
  in
  let rounds = instance.horizon + 1 in
  let by_round = Instance.arrivals_by_round instance in
  let jobs = Instance.total_jobs instance in
  let feeds = Array.length instance.arrivals in
  (* one drive: feed the next [loaded_chunk] rounds, step them, repeat;
     the GC counters and the clock are read around the steps and the
     feeds separately *)
  let drive () =
    let registry = Rrs_obs.Metrics.create () in
    let factory i ~n = (Lru_edf.make ~registry i ~n).policy in
    let s =
      Engine.Session.create ~name:"loaded"
        (Engine.config ~n:loaded_n ())
        ~delta:instance.delta ~delay:instance.delay factory
    in
    let step_words = ref 0. and feed_words = ref 0. and step_seconds = ref 0. in
    let r = ref 0 in
    while !r < rounds do
      let upto = min rounds (!r + loaded_chunk) in
      let w0 = Gc.minor_words () in
      for round = !r to upto - 1 do
        List.iter
          (fun (color, count) ->
            match Engine.Session.feed s ~round ~color ~count with
            | Ok () -> ()
            | Error e -> failwith (Engine.Session.string_of_feed_error e))
          by_round.(round)
      done;
      let w1 = Gc.minor_words () in
      let t0 = Unix.gettimeofday () in
      for _ = !r to upto - 1 do
        Engine.Session.step s
      done;
      let t1 = Unix.gettimeofday () in
      let w2 = Gc.minor_words () in
      feed_words := !feed_words +. (w1 -. w0);
      step_words := !step_words +. (w2 -. w1);
      step_seconds := !step_seconds +. (t1 -. t0);
      r := upto
    done;
    let result = Engine.Session.finish ~expect_drained:true s in
    let updates =
      Rrs_obs.Metrics.value (Rrs_obs.Metrics.counter registry "ranking_update")
    in
    (result, updates, !step_words, !feed_words, !step_seconds)
  in
  (* the first drive warms the heap; words and counts are the same in
     every drive, the time is the best of [repeats] *)
  let result, updates, step_words, feed_words, _ = drive () in
  let seconds = ref infinity in
  for _ = 1 to max 1 !repeats do
    let _, _, _, _, t = drive () in
    if t < !seconds then seconds := t
  done;
  let words_per_round = step_words /. float_of_int rounds in
  let words_per_job = step_words /. float_of_int jobs in
  let words_per_feed = feed_words /. float_of_int (max 1 feeds) in
  let rounds_per_sec = float_of_int rounds /. !seconds in
  print_endline
    "================================================================";
  Printf.printf " Loaded: dlru-edf on zipf, %d colors, n=%d, fed %d rounds ahead\n"
    loaded_colors loaded_n loaded_chunk;
  print_endline
    "================================================================";
  Printf.printf
    "%d rounds, %d jobs: %.0f rounds/s, %.1f minor words/round, %.2f/job, \
     %.2f/feed, %d ranking updates, cost %d\n"
    rounds jobs rounds_per_sec words_per_round words_per_job words_per_feed
    updates (Cost.total result.cost);
  Rrs_obs.Run_summary.write oc
    (Rrs_obs.Run_summary.make
       ~id:(Printf.sprintf "core-loaded-zipf-c%d" loaded_colors)
       ~kind:"bench" ~seed:1
       ~config:
         [
           ("family", "zipf");
           ("policy", "dlru-edf");
           ("n", string_of_int loaded_n);
           ("colors", string_of_int loaded_colors);
           ("feed_ahead", string_of_int loaded_chunk);
         ]
       ~reconfig_cost:result.cost.reconfig ~drop_cost:result.cost.drop
       ~analysis:
         [
           ("rounds", float_of_int rounds);
           ("jobs", float_of_int jobs);
           ("ranking_updates", float_of_int updates);
           ("loaded_seconds", !seconds);
           ("loaded_rounds_per_sec", rounds_per_sec);
           ("alloc_minor_words_per_round", words_per_round);
           ("alloc_minor_words_per_job", words_per_job);
           ("alloc_minor_words_per_feed", words_per_feed);
         ]
       ~timings:
         [
           {
             Rrs_obs.Run_summary.phase = "loaded";
             seconds = !seconds;
             count = max 1 !repeats;
           };
         ]
       ())

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
     their engine events stream into a heartbeat and a flight recorder
     attached in front of the recording sink, while the reference runs
     stay bare.  The
     full-result equality below therefore proves decision identity AND
     that recorder + heartbeat perturb nothing (the same
     non-perturbation standard as the Watchdog). *)
  let recorder = Rrs_obs.Flight_recorder.create ~capacity:256 () in
  let heartbeat = Rrs_obs.Heartbeat.create ~every_rounds:128 () in
  (* the result plus the schedule recorded off the engine's events *)
  let run ?(attach = Fun.id) instance (factory : Policy.factory) =
    let events = Rrs_obs.Sink.memory () in
    let r =
      Engine.run_policy
        (Engine.config ~n:!n ~sink:(attach events) ())
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
            run
              ~attach:(fun events ->
                Rrs_obs.Heartbeat.attach heartbeat
                  (Rrs_obs.Flight_recorder.attach recorder events))
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
        run_loaded oc;
        let diff_ok = run_differential oc in
        scaling_ok && diff_ok)
  in
  Printf.printf "run summaries written to %s\n" !out;
  if not ok then begin
    print_endline "core bench: DIVERGENCE DETECTED";
    exit 1
  end;
  print_endline "core bench: done"
