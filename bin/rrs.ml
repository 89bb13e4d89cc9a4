(* rrs — command-line driver for the reconfigurable-resource-scheduling
   reproduction.

     rrs list                         show workload families and experiments
     rrs simulate -f router -p dlru-edf -n 8 --validate
     rrs experiment EXP-A             run one experiment (or all, no arg)
     rrs opt -f uniform -s 1 -m 1     bracket / solve the offline optimum *)

open Cmdliner
open Rrs_core
module Families = Rrs_workload.Families
module Table = Rrs_report.Table

(* ------------------------------------------------------------------ *)
(* shared arguments                                                    *)
(* ------------------------------------------------------------------ *)

let family_arg =
  let doc =
    "Workload family id (see $(b,rrs list)).  The family determines which \
     solver layer applies."
  in
  Arg.(
    required
    & opt (some string) None
    & info [ "f"; "family" ] ~docv:"FAMILY" ~doc)

let seed_arg =
  let doc = "Generator seed; the (family, seed) pair is reproducible." in
  Arg.(value & opt int 1 & info [ "s"; "seed" ] ~docv:"SEED" ~doc)

let resources_arg =
  let doc = "Resources given to the online algorithm (multiple of 4)." in
  Arg.(value & opt int 8 & info [ "n"; "resources" ] ~docv:"N" ~doc)

let lookup_family id =
  match Families.find id with
  | Some f -> Ok f
  | None ->
      Error
        (Printf.sprintf "unknown family %S; known: %s" id
           (String.concat ", " (Families.ids ())))

(* ------------------------------------------------------------------ *)
(* rrs list                                                            *)
(* ------------------------------------------------------------------ *)

let list_cmd =
  let run () =
    let table = Table.create ~columns:[ "family"; "layer"; "description" ] in
    List.iter
      (fun (f : Families.family) ->
        Table.add_row table
          [ f.id; Families.layer_to_string f.layer; f.description ])
      Families.all;
    Table.print ~title:"workload families" table;
    let table = Table.create ~columns:[ "experiment" ] in
    List.iter
      (fun id -> Table.add_row table [ id ])
      (Rrs_experiments.Registry.ids ());
    Table.print ~title:"experiments (run with: rrs experiment <id>)" table;
    0
  in
  Cmd.v (Cmd.info "list" ~doc:"List workload families and experiments")
    Term.(const run $ const ())

(* ------------------------------------------------------------------ *)
(* rrs simulate                                                        *)
(* ------------------------------------------------------------------ *)

let policy_arg =
  let policies =
    [
      ("dlru-edf", `Lru_edf);
      ("dlru", `Dlru);
      ("edf", `Edf);
      ("seq-edf", `Seq_edf);
      ("black", `Black);
      ("pipeline", `Pipeline);
      ("greedy", `Greedy);
      ("greedy-hysteresis", `Greedy_hysteresis);
      ("round-robin", `Round_robin);
    ]
  in
  let doc =
    "Policy: $(b,dlru-edf) (the paper's algorithm), $(b,dlru), $(b,edf), \
     $(b,seq-edf), $(b,black) (drop everything), $(b,pipeline) (VarBatch + \
     Distribute + dLRU-EDF; required for unbatched families), or the naive \
     baselines $(b,greedy), $(b,greedy-hysteresis), $(b,round-robin)."
  in
  Arg.(
    value
    & opt (enum policies) `Lru_edf
    & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)

let validate_arg =
  let doc = "Replay the schedule through the independent validator." in
  Arg.(value & flag & info [ "validate" ] ~doc)

let metrics_arg =
  let doc =
    "Write per-round metrics (backlog, cache, cumulative costs) to this \
     file as JSONL (one $(b,metrics_sample) object per round plus a final \
     $(b,metrics_registry) line; see doc/TELEMETRY.md)."
  in
  Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)

let trace_arg =
  let doc =
    "Stream every engine and analysis event (drops, arrivals, \
     reconfigurations, executions, epochs, wraps, super-epochs, credits) \
     to this JSONL file, followed by one $(b,run_summary) line.  See \
     doc/TELEMETRY.md for the schema."
  in
  Arg.(value & opt (some string) None & info [ "trace" ] ~docv:"FILE" ~doc)

let profile_arg =
  let doc =
    "Profile the run with hierarchical spans and write a Chrome \
     trace-event JSON file (open in Perfetto / $(b,chrome://tracing)).  \
     One track per domain; span end events carry minor/promoted/major \
     allocation word deltas.  See doc/TELEMETRY.md, \"Profiling\"."
  in
  Arg.(value & opt (some string) None & info [ "profile" ] ~docv:"FILE" ~doc)

let heartbeat_arg =
  let doc =
    "Stream live health snapshots to this JSONL file (one \
     $(b,heartbeat) object per beat, flushed immediately so the file \
     can be tailed), plus an atomically-replaced single-line status \
     file at $(docv)$(b,.status) and a Prometheus text exposition at \
     $(docv)$(b,.prom).  Render the latest beat with $(b,rrs status); \
     see doc/TELEMETRY.md, \"Live telemetry\"."
  in
  Arg.(value & opt (some string) None & info [ "heartbeat" ] ~docv:"FILE" ~doc)

let heartbeat_every_arg =
  let doc = "Beat every $(docv) engine rounds (with $(b,--heartbeat))." in
  Arg.(
    value & opt int 64 & info [ "heartbeat-every" ] ~docv:"ROUNDS" ~doc)

(* Run [f] with a heartbeat committed on the way out — shared by
   simulate, which attaches it to its engine sink, and experiment,
   whose harness runs attach it as the ambient one. *)
let with_heartbeat heartbeat_file ~every ?registry f =
  match heartbeat_file with
  | None -> f None
  | Some path ->
      if every < 1 then begin
        prerr_endline "--heartbeat-every must be at least 1";
        exit 1
      end;
      let hb =
        Rrs_obs.Heartbeat.create ~every_rounds:every ~path
          ~status_path:(path ^ ".status")
          ?expose_path:(Option.map (fun _ -> path ^ ".prom") registry)
          ?registry ()
      in
      let finally () =
        Rrs_obs.Heartbeat.finish hb;
        Format.printf "heartbeat written to %s (%d beats over %d rounds)@."
          path
          (Rrs_obs.Heartbeat.beats hb)
          (Rrs_obs.Heartbeat.rounds_observed hb)
      in
      Fun.protect ~finally (fun () ->
          Rrs_obs.Heartbeat.with_heartbeat hb (fun () -> f (Some hb)))

(* Run [f] under a fresh profiler scope and commit the Chrome trace —
   shared by simulate and experiment. *)
let with_profile profile_file f =
  match profile_file with
  | None -> f ()
  | Some path ->
      let prof = Rrs_prof.create () in
      let finally () =
        Rrs_prof.write_chrome prof path;
        Format.printf "profile written to %s (%d events)@." path
          (Rrs_prof.events prof)
      in
      Fun.protect ~finally (fun () -> Rrs_prof.with_profiler prof f)

(* Round-latency percentiles of a sampled run, in seconds (so
   strip_timings covers them). *)
let latency_analysis = function
  | None -> []
  | Some m ->
      let h = Rrs_trace.Metrics.round_latency m in
      if Rrs_stats.Histogram.count h = 0 then []
      else
        List.map
          (fun (name, q) ->
            (name, float_of_int (Rrs_stats.Histogram.quantile h q) /. 1e6))
          [
            ("round_latency_p50_seconds", 0.5);
            ("round_latency_p95_seconds", 0.95);
            ("round_latency_p99_seconds", 0.99);
          ]

let save_instance_arg =
  let doc = "Also save the generated instance to this CSV file." in
  Arg.(
    value
    & opt (some string) None
    & info [ "save-instance" ] ~docv:"FILE" ~doc)

let colors_arg =
  let doc =
    "Generate the workload at $(docv) colors instead of the family \
     default — the scaling knob the core bench sweeps.  Only synthetic \
     families support it (scenario families have a fixed cast)."
  in
  Arg.(value & opt (some int) None & info [ "colors" ] ~docv:"COLORS" ~doc)

let policy_id = function
  | `Lru_edf -> "dlru-edf"
  | `Dlru -> "dlru"
  | `Edf -> "edf"
  | `Seq_edf -> "seq-edf"
  | `Black -> "black"
  | `Pipeline -> "pipeline"
  | `Greedy -> "greedy"
  | `Greedy_hysteresis -> "greedy-hysteresis"
  | `Round_robin -> "round-robin"

(* The ΔLRU family also streams the analysis layer: eligibility events
   via [make ~sink], and super-epoch completions (m = n/8, the Theorem 1
   offline adversary) from a consumer of their timestamp updates. *)
let analysis_sink sink ~n =
  if Rrs_obs.Sink.enabled sink then
    Super_epochs.attach (Super_epochs.create ~m:(max 1 (n / 8))) sink
  else sink

let simulate family seed n policy validate metrics_file trace_file
    save_instance colors profile_file heartbeat_file heartbeat_every =
  let build_instance (f : Families.family) =
    match colors with
    | None -> Ok (f.build ~seed)
    | Some c ->
        Result.map_error
          (fun e ->
            Printf.sprintf "--colors: %s" (Families.string_of_scale_error e))
          (Families.scale_to f ~num_colors:c ~seed)
  in
  match Result.bind (lookup_family family) build_instance with
  | Error msg ->
      prerr_endline msg;
      1
  | Ok instance -> (
      Format.printf "%a@." Instance.pp instance;
      Option.iter
        (fun path ->
          Rrs_trace.Instance_io.save path instance;
          Format.printf "instance saved to %s@." path)
        save_instance;
      (* one registry shared by the policy (ranking_update), the
         per-round sampler (drops/recolorings/backlog, and the engine's
         rounds and round latency from its Round_end events), the
         run's allocation gauges, and the heartbeat's Prometheus
         exposition, so a single metrics_registry line (and .prom file)
         carries everything.  A trace run gets the registry too: its
         run_summary line then carries latency percentiles and
         allocation gauges. *)
      let registry =
        if
          Option.is_some metrics_file || Option.is_some trace_file
          || Option.is_some heartbeat_file
        then Some (Rrs_obs.Metrics.create ())
        else None
      in
      let simulate_with heartbeat sink_opt =
        let sink = Option.value ~default:Rrs_obs.Sink.null sink_opt in
        (* the per-round sampler, the schedule recorder and the
           heartbeat consume the engine's events; the policy keeps the
           plain sink *)
        let collector =
          Option.map
            (fun registry -> Rrs_trace.Metrics.create ~registry ())
            registry
        in
        let recorder = if validate then Some (Rrs_obs.Sink.memory ()) else None in
        let engine_sink =
          let recorded =
            match recorder with
            | None -> sink
            | Some rec_sink ->
                Rrs_obs.Sink.callback (fun e ->
                    Rrs_obs.Sink.emit rec_sink e;
                    Rrs_obs.Sink.emit sink e)
          in
          let sampled =
            match collector with
            | None -> recorded
            | Some m -> Rrs_trace.Metrics.attach m recorded
          in
          match heartbeat with
          | None -> sampled
          | Some hb -> Rrs_obs.Heartbeat.attach hb sampled
        in
        let gc_words () =
          let { Gc.promoted_words; major_words; _ } = Gc.quick_stat () in
          [
            ("alloc_minor_words_per_round", Gc.minor_words ());
            ("alloc_promoted_words_per_round", promoted_words);
            ("alloc_major_words_per_round", major_words);
          ]
        in
        (* wall time and GC counter deltas per round over the run *)
        let timed run =
          let gc0 = gc_words () in
          let t0 = Unix.gettimeofday () in
          let (r : Engine.result) = run () in
          let seconds = Unix.gettimeofday () -. t0 in
          let per_round (name, v0) (_, v1) =
            (name, (v1 -. v0) /. float_of_int (max r.rounds_simulated 1))
          in
          (r, seconds, List.map2 per_round gc0 (gc_words ()))
        in
        let run_plain policy =
          timed (fun () ->
              Engine.run_policy
                (Engine.config ~n ~sink:engine_sink ())
                instance policy)
        in
        let r, seconds, alloc =
          match policy with
          | `Lru_edf ->
              let sink = analysis_sink sink ~n in
              run_plain (Lru_edf.make ~sink ?registry instance ~n).policy
          | `Dlru ->
              let sink = analysis_sink sink ~n in
              run_plain (Delta_lru.make ~sink ?registry instance ~n).policy
          | `Edf -> run_plain (Edf_policy.make ~sink ?registry instance ~n).policy
          | `Seq_edf ->
              run_plain (Edf_policy.make_seq ~sink ?registry instance ~n).policy
          | `Black -> run_plain (Static_policy.black instance ~n)
          | `Greedy -> run_plain (Naive_policies.greedy_backlog instance ~n)
          | `Greedy_hysteresis ->
              run_plain
                (Naive_policies.greedy_backlog_hysteresis
                   ~threshold:instance.delta instance ~n)
          | `Round_robin -> run_plain (Naive_policies.round_robin instance ~n)
          | `Pipeline -> timed (fun () -> Var_batch.run instance ~n ~sink:engine_sink)
        in
        Option.iter
          (fun reg ->
            List.iter
              (fun (name, v) ->
                Rrs_obs.Metrics.set (Rrs_obs.Metrics.gauge reg name) v)
              alloc)
          registry;
        (match (metrics_file, collector) with
        | Some path, Some m ->
            Out_channel.with_open_text path (fun oc ->
                output_string oc (Rrs_trace.Metrics.to_jsonl m));
            Format.printf "metrics written to %s@." path
        | _ -> ());
        (* the pipeline delays arrivals, so its schedule is checked for
           feasibility against the original instance, not drop timing *)
        let report =
          Option.map
            (fun rec_sink ->
              Validator.check_result
                ~strict_drops:(policy <> `Pipeline)
                instance
                (Schedule.of_events ~n ~mini_rounds:1
                   (Rrs_obs.Sink.events rec_sink))
                r)
            recorder
        in
        Option.iter
          (fun sink ->
            Rrs_obs.Sink.write_line sink
              (Rrs_obs.Run_summary.to_line
                 (Rrs_obs.Run_summary.make
                 ~id:(Printf.sprintf "%s-s%d" family seed)
                 ~kind:"simulate" ~seed
                 ~config:
                   [
                     ("family", family);
                     ("policy", policy_id policy);
                     ("n", string_of_int n);
                     ("colors", string_of_int instance.num_colors);
                   ]
                 ~reconfig_cost:r.reconfigurations ~drop_cost:r.dropped
                 ~analysis:
                   ([
                      ("executed", float_of_int r.executed);
                      ("rounds", float_of_int r.rounds_simulated);
                    ]
                   @ latency_analysis collector @ alloc)
                 ~timings:
                   [
                     { Rrs_obs.Run_summary.phase = "engine"; seconds; count = 1 };
                   ]
                 ())))
          sink_opt;
        (r, report)
      in
      let r, report =
        with_profile profile_file @@ fun () ->
        with_heartbeat heartbeat_file ~every:heartbeat_every ?registry
        @@ fun heartbeat ->
        match trace_file with
        | None -> simulate_with heartbeat None
        | Some path ->
            let result =
              Rrs_obs.Sink.with_jsonl path (fun sink ->
                  simulate_with heartbeat (Some sink))
            in
            Format.printf "trace written to %s@." path;
            result
      in
      Format.printf "cost: %a@." Cost.pp r.cost;
      Format.printf "executed %d, dropped %d, %d recolorings over %d rounds@."
        r.executed r.dropped r.reconfigurations r.rounds_simulated;
      let lb = Offline_bounds.lower_bound instance ~m:(max 1 (n / 8)) in
      Format.printf "OPT(m=%d) lower bound: %d (ratio upper estimate %.2f)@."
        (max 1 (n / 8))
        lb
        (Cost.ratio r.cost (Cost.make ~reconfig:lb ~drop:0));
      (match report with
      | Some report ->
          Format.printf "validator: %a@." Validator.pp_report report;
          if not report.ok then exit 2
      | None -> ());
      0)

let simulate_cmd =
  Cmd.v
    (Cmd.info "simulate" ~doc:"Run one policy on one workload")
    Term.(
      const simulate $ family_arg $ seed_arg $ resources_arg $ policy_arg
      $ validate_arg $ metrics_arg $ trace_arg $ save_instance_arg
      $ colors_arg $ profile_arg $ heartbeat_arg
      $ heartbeat_every_arg)

(* ------------------------------------------------------------------ *)
(* rrs experiment                                                      *)
(* ------------------------------------------------------------------ *)

let experiment_cmd =
  let id_arg =
    let doc = "Experiment ids (e.g. EXP-A); omit to run every experiment." in
    Arg.(value & pos_all string [] & info [] ~docv:"ID" ~doc)
  in
  let markdown_arg =
    let doc = "Emit GitHub-markdown tables (for EXPERIMENTS.md updates)." in
    Arg.(value & flag & info [ "markdown" ] ~doc)
  in
  let out_arg =
    let doc =
      "Append one canonical $(b,run_summary) JSONL line per experiment \
       (engine cost deltas, run counts, wall time) to this file.  Read it \
       back with Rrs_obs.Run_summary.load; see doc/TELEMETRY.md."
    in
    Arg.(value & opt (some string) None & info [ "out" ] ~docv:"FILE" ~doc)
  in
  let jobs_arg =
    let doc =
      "Spread the experiments over $(docv) domains (0 = one per \
       recommended core).  Telemetry is domain-safe: cost totals and \
       run-summary artifacts are identical to a sequential run, only \
       wall-clock fields differ (see doc/TELEMETRY.md)."
    in
    Arg.(value & opt int 1 & info [ "j"; "jobs" ] ~docv:"N" ~doc)
  in
  let exp_metrics_arg =
    let doc =
      "Write one $(b,metrics_registry) JSONL line per experiment (the \
       experiment's private telemetry registry — counters, gauges, \
       histograms, timers) to this file, in requested-id order.  The \
       lines are identical for every $(b,--jobs); failed experiments \
       get no line.  Same registry schema as $(b,rrs simulate \
       --metrics); see doc/TELEMETRY.md."
    in
    Arg.(value & opt (some string) None & info [ "metrics" ] ~docv:"FILE" ~doc)
  in
  let timeout_arg =
    let doc =
      "Abandon an experiment after $(docv) wall-clock seconds (counts as a \
       transient failure, so it retries under $(b,--retries))."
    in
    Arg.(
      value & opt (some float) None & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let retries_arg =
    let doc =
      "Retry a transiently failing experiment up to $(docv) more times \
       (deterministic exponential backoff)."
    in
    Arg.(value & opt int 0 & info [ "retries" ] ~docv:"N" ~doc)
  in
  let keep_going_arg =
    let doc =
      "Keep running the remaining experiments after one fails (the failures \
       are listed at the end either way).  Without this flag, experiments \
       not yet started when a failure lands are skipped."
    in
    Arg.(value & flag & info [ "k"; "keep-going" ] ~doc)
  in
  let resume_arg =
    let doc =
      "With $(b,--out): read the artifact left by a previous (possibly \
       crashed) run, skip the experiments it already records — tolerating \
       a torn final line — and write the merged artifact."
    in
    Arg.(value & flag & info [ "resume" ] ~doc)
  in
  let run id markdown out jobs timeout retries keep_going resume metrics_out
      profile_file heartbeat_file heartbeat_every =
    let module Registry = Rrs_experiments.Registry in
    let module Supervisor = Rrs_robust.Supervisor in
    let emit =
      if markdown then Rrs_experiments.Harness.print_markdown
      else Rrs_experiments.Harness.print
    in
    let jobs =
      if jobs <= 0 then Rrs_parallel.Pool.num_domains () else jobs
    in
    let ids =
      match id with
      | [] -> Ok (Registry.ids ())
      | ids -> (
          match List.find_opt (fun id -> Registry.find id = None) ids with
          | Some bad -> Error bad
          | None -> Ok ids)
    in
    match ids with
    | Error id ->
        Printf.eprintf "unknown experiment %s; known: %s\n" id
          (String.concat ", " (Registry.ids ()));
        1
    | Ok ids -> (
        let previous =
          match (resume, out) with
          | false, _ -> Ok []
          | true, None ->
              Error "--resume only makes sense together with --out"
          | true, Some path when not (Sys.file_exists path) -> Ok []
          | true, Some path -> (
              match Rrs_obs.Run_summary.load_tolerant path with
              | Error msg -> Error msg
              | Ok (summaries, torn) ->
                  (* a torn trailing line means the previous run died
                     mid-write: its experiment will re-run, but say so
                     loudly — silently shrinking the artifact reads as
                     data loss *)
                  Option.iter
                    (fun { Rrs_obs.Run_summary.lineno; reason } ->
                      Format.eprintf
                        "warning: resume: skipped torn trailing line %d of \
                         %s (%s); its experiment will re-run@."
                        lineno path reason)
                    torn;
                  Ok summaries)
        in
        match previous with
        | Error msg ->
            prerr_endline msg;
            1
        | Ok previous ->
            let done_ids =
              List.map (fun s -> s.Rrs_obs.Run_summary.id) previous
            in
            let todo =
              List.filter (fun id -> not (List.mem id done_ids)) ids
            in
            if resume && List.length todo < List.length ids then
              Format.printf "resume: %d of %d experiments already recorded@."
                (List.length ids - List.length todo)
                (List.length ids);
            let policy = { Supervisor.default with timeout; retries } in
            (* the always-on black-box: every experiment sweep runs
               under a flight recorder armed to dump next to the run
               artifact (or into the working directory), so any
               classified failure ships a crash-<id>.jsonl window of
               its last engine events *)
            let dump_dir =
              match out with Some path -> Filename.dirname path | None -> "."
            in
            let recorder = Rrs_obs.Flight_recorder.create () in
            let results =
              with_profile profile_file (fun () ->
                  Rrs_obs.Flight_recorder.with_recorder ~dump_dir recorder
                    (fun () ->
                      with_heartbeat heartbeat_file ~every:heartbeat_every
                        ~registry:Rrs_experiments.Harness.telemetry (fun _ ->
                          Registry.run_many ~jobs ~policy ~keep_going todo)))
            in
            List.iter
              (fun (_, r) ->
                match r with
                | Ok s -> emit s.Registry.outcome
                | Error _ -> ())
              results;
            (match metrics_out with
            | None -> ()
            | Some path ->
                Rrs_obs.Sink.with_jsonl path (fun sink ->
                    List.iter
                      (fun id ->
                        match List.assoc_opt id results with
                        | Some (Ok s) ->
                            Rrs_obs.Sink.write_line sink
                              (Rrs_obs.Json.to_string
                                 (Rrs_obs.Json.Assoc
                                    [
                                      ( "type",
                                        Rrs_obs.Json.String "metrics_registry"
                                      );
                                      ("id", Rrs_obs.Json.String id);
                                      ("registry", s.Registry.metrics);
                                    ]))
                        | Some (Error _) | None -> ())
                      ids);
                Format.printf "metrics registries written to %s@." path);
            (match out with
            | None -> ()
            | Some path ->
                Rrs_obs.Sink.with_jsonl path (fun sink ->
                    let line s =
                      Rrs_obs.Sink.write_line sink
                        (Rrs_obs.Run_summary.to_line s)
                    in
                    (* requested order: the prior run's line if it has
                       one, else this run's (failed ids get no line, so
                       a further --resume completes exactly them) *)
                    List.iter
                      (fun id ->
                        match
                          List.find_opt
                            (fun s -> s.Rrs_obs.Run_summary.id = id)
                            previous
                        with
                        | Some s -> line s
                        | None -> (
                            match List.assoc_opt id results with
                            | Some (Ok s) -> line s.Registry.summary
                            | Some (Error _) | None -> ()))
                      ids;
                    (* summaries of ids outside this invocation survive *)
                    List.iter
                      (fun s ->
                        if not (List.mem s.Rrs_obs.Run_summary.id ids) then
                          line s)
                      previous);
                Format.printf "run summaries written to %s@." path);
            let failures = Registry.failures results in
            List.iter
              (fun (_, f) ->
                Format.eprintf "%a@." Supervisor.pp_failure f;
                let dump =
                  Rrs_obs.Flight_recorder.crash_dump_path ~dir:dump_dir
                    ~name:f.Supervisor.name
                in
                if Sys.file_exists dump then
                  Format.eprintf "  crash dump: %s@." dump;
                let bt = Printexc.raw_backtrace_to_string f.backtrace in
                if String.trim bt <> "" then prerr_string bt)
              failures;
            if failures = [] then 0
            else begin
              Printf.eprintf "%d of %d experiments failed\n"
                (List.length failures) (List.length todo);
              1
            end)
  in
  Cmd.v
    (Cmd.info "experiment" ~doc:"Regenerate a reproduction experiment")
    Term.(
      const run $ id_arg $ markdown_arg $ out_arg $ jobs_arg $ timeout_arg
      $ retries_arg $ keep_going_arg $ resume_arg $ exp_metrics_arg
      $ profile_arg $ heartbeat_arg $ heartbeat_every_arg)

(* ------------------------------------------------------------------ *)
(* rrs status                                                          *)
(* ------------------------------------------------------------------ *)

let status_cmd =
  let file_arg =
    let doc =
      "A heartbeat stream ($(b,--heartbeat) FILE) or its single-line \
       $(b,.status) companion."
    in
    Arg.(required & pos 0 (some string) None & info [] ~docv:"FILE" ~doc)
  in
  let watch_arg =
    let doc =
      "Poll the file every $(docv) seconds and re-render whenever a new \
       beat lands; exits 0 once the final beat ($(b,\"final\":true)) is \
       seen.  A file that does not exist yet is waited for — the live \
       session may not have beaten."
    in
    Arg.(value & opt (some float) None & info [ "watch" ] ~docv:"SECS" ~doc)
  in
  let module J = Rrs_obs.Json in
  (* distinguish the failure modes instead of raising: a path that is
     not there, a file with no bytes, and a file with bytes but no
     parseable heartbeat line each get their own message *)
  let last_beat file =
    if not (Sys.file_exists file) then Error `Missing
    else
      let lines = In_channel.with_open_text file In_channel.input_lines in
      if List.for_all (fun l -> String.trim l = "") lines then Error `Empty
      else
        let heartbeat_line acc line =
          match J.parse line with
          | Ok j when J.member "type" j = Some (J.String "heartbeat") -> Some j
          | _ -> acc
        in
        match List.fold_left heartbeat_line None lines with
        | None -> Error `No_beat
        | Some j -> Ok j
  in
  let describe_error file = function
    | `Missing ->
        Printf.sprintf
          "status: %s: no such file (give the --heartbeat stream or its \
           .status companion)"
          file
    | `Empty -> Printf.sprintf "status: %s: file is empty (no beat yet?)" file
    | `No_beat -> Printf.sprintf "status: no heartbeat line in %s" file
  in
  let render j =
        let int name =
          Option.bind (J.member name j) (fun v -> Result.to_option (J.to_int v))
        in
        let float name =
          Option.bind (J.member name j) (fun v ->
              Result.to_option (J.to_float v))
        in
        let i0 name = Option.value ~default:0 (int name) in
        let final = J.member "final" j = Some (J.Bool true) in
        Format.printf "beat %d%s — round %d, %d rounds observed@." (i0 "beat")
          (if final then " (final)" else " (running)")
          (i0 "round") (i0 "rounds");
        Format.printf
          "cost: reconfig %d + drop %d = %d (%d recolorings, %d executed)@."
          (i0 "reconfig_cost") (i0 "drop_cost") (i0 "total_cost")
          (i0 "recolorings") (i0 "executed");
        (match (int "round_latency_p50_us", int "round_latency_p95_us",
                int "round_latency_p99_us")
         with
        | Some p50, Some p95, Some p99 ->
            Format.printf "round latency p50/p95/p99: %d/%d/%d us@." p50 p95
              p99
        | _ -> ());
        (match
           (float "alloc_minor_words_per_round", int "major_collections")
         with
        | Some minor, Some majors ->
            Format.printf
              "alloc: %.0f minor words/round, %d major collections@." minor
              majors
        | _ -> ());
        (* service beats (rrs serve) carry the overload and recovery
           counters; render them when present *)
        (match int "serve_ops" with
        | None -> ()
        | Some ops ->
            let select_rate =
              match (int "serve_commands", int "serve_select_rounds") with
              | Some cmds, Some rounds when cmds > 0 ->
                  Printf.sprintf ", %d commands, %.2f select rounds/command"
                    cmds
                    (float_of_int rounds /. float_of_int cmds)
              | _ -> ""
            in
            Format.printf
              "service: %d ops%s; overload busy %d, shed %d, slow drops %d, \
               wedged %d@."
              ops select_rate (i0 "serve_busy") (i0 "serve_shed")
              (i0 "serve_slow_drops") (i0 "serve_wedged");
            Format.printf
              "recovery: %d restores (%d session restarts, %d journal bytes \
               read) — torn tail %d, quarantined %d, refused %d@."
              (i0 "serve_restores")
              (i0 "serve_session_restarts")
              (i0 "serve_restore_journal_bytes")
              (i0 "serve_recovery_torn_tail")
              (i0 "serve_recovery_quarantined")
              (i0 "serve_recovery_refused");
            Format.printf "checkpoints: %d (%d on leave), %d failed@."
              (i0 "serve_checkpoints")
              (i0 "serve_leave_checkpoints")
              (i0 "serve_checkpoint_failures"));
        Format.printf "window: %d rounds, %.3fs since previous beat@."
          (i0 "rounds_since")
          (Option.value ~default:0. (float "seconds_since"));
        if not final then
          Format.printf "(stream still open — run had not finished here)@.";
        final
  in
  let run file watch =
    match watch with
    | None -> (
        match last_beat file with
        | Error e ->
            prerr_endline (describe_error file e);
            1
        | Ok j ->
            ignore (render j);
            0)
    | Some secs ->
        if secs <= 0. then begin
          prerr_endline "status: --watch must be positive";
          exit 1
        end;
        let rec poll ~warned last_shown =
          let state =
            match last_beat file with
            | Error e -> Error e
            | Ok j ->
                let beat =
                  Option.bind (J.member "beat" j) (fun v ->
                      Result.to_option (J.to_int v))
                in
                Ok (j, beat)
          in
          let warned, next_shown, final =
            match state with
            | Error e ->
                (* a live session may simply not have beaten yet *)
                if not warned then
                  Format.printf "(waiting: %s)@." (describe_error file e);
                (true, last_shown, false)
            | Ok (j, beat) ->
                if beat <> last_shown || last_shown = None then
                  (warned, beat, render j)
                else (warned, last_shown, false)
          in
          if final then 0
          else begin
            Unix.sleepf secs;
            poll ~warned next_shown
          end
        in
        poll ~warned:false None
  in
  Cmd.v
    (Cmd.info "status"
       ~doc:
         "Render the latest heartbeat of a run (live or finished) \
          human-readably")
    Term.(const run $ file_arg $ watch_arg)

(* ------------------------------------------------------------------ *)
(* rrs serve                                                           *)
(* ------------------------------------------------------------------ *)

let serve_cmd =
  let module Server = Rrs_service.Server in
  let module Transport = Rrs_service.Transport in
  let module Stream = Rrs_workload.Arrival_stream in
  let policy_arg =
    let doc =
      Printf.sprintf
        "Streaming policy: %s (the online subset of the simulate table; \
         the pipeline policy needs the whole instance up front)."
        (String.concat ", "
           (List.map (fun (id, _) -> "$(b," ^ id ^ ")") Server.policies))
    in
    Arg.(
      value & opt string "dlru-edf" & info [ "p"; "policy" ] ~docv:"POLICY" ~doc)
  in
  let delta_arg =
    let doc = "Reconfiguration charge Δ of the session." in
    Arg.(value & opt int 4 & info [ "delta" ] ~docv:"DELTA" ~doc)
  in
  let colors_arg =
    let doc = "Size of the color universe." in
    Arg.(value & opt int 8 & info [ "colors" ] ~docv:"COLORS" ~doc)
  in
  let delay_bound_arg =
    let doc = "Delay bound given to every color (see also $(b,--family))." in
    Arg.(value & opt int 8 & info [ "delay-bound" ] ~docv:"ROUNDS" ~doc)
  in
  let mini_rounds_arg =
    let doc = "Mini-rounds per round (2 = double-speed)." in
    Arg.(value & opt int 1 & info [ "mini-rounds" ] ~docv:"K" ~doc)
  in
  let family_arg =
    let doc =
      "Take Δ, the color universe and the per-color delay bounds from this \
       workload family (with $(b,--seed)) instead of \
       $(b,--delta)/$(b,--colors)/$(b,--delay-bound) — the same parameters \
       $(b,--emit-script) bakes into its script, so the two sides of the \
       pipe always agree."
    in
    Arg.(
      value & opt (some string) None & info [ "f"; "family" ] ~docv:"FAMILY" ~doc)
  in
  let emit_script_arg =
    let doc =
      "Do not serve: print the $(b,--family) workload as a protocol script \
       (submit/step lines, final state + quit) for piping into a serve \
       process, then exit."
    in
    Arg.(value & flag & info [ "emit-script" ] ~doc)
  in
  let step_chunk_arg =
    let doc = "Rounds per $(b,step) line in $(b,--emit-script) output." in
    Arg.(value & opt int 64 & info [ "step-chunk" ] ~docv:"ROUNDS" ~doc)
  in
  let checkpoint_dir_arg =
    let doc =
      "Durable state directory (journal segments $(b,journal.jsonl), \
       $(b,journal.N) and $(b,checkpoint.json)); a restart with the same \
       directory restores the session.  Without it \
       the session is ephemeral."
    in
    Arg.(
      value
      & opt (some string) None
      & info [ "checkpoint-dir" ] ~docv:"DIR" ~doc)
  in
  let checkpoint_every_arg =
    let doc =
      "Commit a checkpoint once the replay work since the last one \
       reaches $(docv) units (0 = only on explicit $(b,checkpoint) \
       commands and at quit).  Replay work counts one unit per applied \
       command (a $(b,reconfigure) counts the number of colors), per \
       round run and per job executed or dropped, so a restore replays \
       less than $(docv) units after the current checkpoint.  A session \
       a client leaves (for another session, or by disconnecting) is \
       also checkpointed once that work reaches its number of colors; \
       0 turns those checkpoints off too."
    in
    Arg.(
      value
      & opt int Server.default_config.checkpoint_every
      & info [ "checkpoint-every" ] ~docv:"WORK" ~doc)
  in
  let crash_after_arg =
    let doc =
      "Testing hook: abandon the process (exit 70, no checkpoint, no \
       goodbye) right after journaling the $(docv)-th applied command — a \
       deterministic kill for restart drills."
    in
    Arg.(value & opt (some int) None & info [ "crash-after" ] ~docv:"OPS" ~doc)
  in
  let socket_arg =
    let doc =
      "Serve many concurrent clients on a Unix-domain socket at $(docv) \
       instead of stdin/stdout; clients multiplex named sessions with \
       $(b,open)/$(b,attach).  SIGTERM/SIGINT drain gracefully (final \
       checkpoint per session)."
    in
    Arg.(value & opt (some string) None & info [ "socket" ] ~docv:"PATH" ~doc)
  in
  let tcp_arg =
    let doc =
      "Serve on a TCP listener at $(docv) (HOST:PORT; port 0 picks a free \
       port, printed on stderr when bound).  Same semantics as \
       $(b,--socket)."
    in
    Arg.(value & opt (some string) None & info [ "tcp" ] ~docv:"HOST:PORT" ~doc)
  in
  let max_conns_arg =
    let doc =
      "Connections accepted at once (socket modes); later clients get \
       $(b,busy connections ...) and are closed."
    in
    Arg.(value & opt int 64 & info [ "max-conns" ] ~docv:"N" ~doc)
  in
  let queue_limit_arg =
    let doc =
      "Commands queued per session before admission control answers \
       $(b,busy queue ... retry-after=...) instead of enqueueing."
    in
    Arg.(value & opt int 64 & info [ "queue-limit" ] ~docv:"N" ~doc)
  in
  let shed_threshold_arg =
    let doc =
      "Total queued commands above which read-only commands \
       ($(b,state)/$(b,sessions)/$(b,help)) are shed with $(b,busy shed \
       ...) so the cycles go to $(b,submit)/$(b,step)."
    in
    Arg.(value & opt int 256 & info [ "shed-threshold" ] ~docv:"N" ~doc)
  in
  let deadline_arg =
    let doc =
      "Per-command apply budget in seconds; a command that overruns wedges \
       its session (the next command restores it from its journal) and the \
       client gets $(b,err deadline ...)."
    in
    Arg.(
      value & opt (some float) None & info [ "deadline" ] ~docv:"SECS" ~doc)
  in
  let serve_counters metrics =
    let count name =
      Rrs_obs.Metrics.(value (counter metrics name))
    in
    [
      ("serve_ops", "ops");
      ("serve_commands", "commands");
      ("serve_select_rounds", "select_rounds");
      ("serve_busy", "busy");
      ("serve_shed", "shed");
      ("serve_slow_client_drops", "slow_drops");
      ("serve_wedged", "wedged");
      ("serve_session_restarts", "session_restarts");
      ("serve_restores", "restores");
      ("serve_restore_journal_bytes", "restore_journal_bytes");
      ("serve_recovery_torn_tail", "recovery_torn_tail");
      ("serve_recovery_checkpoint_quarantined", "recovery_quarantined");
      ("serve_recovery_refused", "recovery_refused");
      ("serve_checkpoints", "checkpoints");
      ("serve_leave_checkpoints", "leave_checkpoints");
      ("serve_checkpoint_failures", "checkpoint_failures");
    ]
    |> List.map (fun (counter, field) ->
           ("serve_" ^ field, Rrs_obs.Json.Int (count counter)))
  in
  let run policy n delta colors delay_bound mini_rounds family seed emit_script
      step_chunk checkpoint_dir checkpoint_every crash_after
      heartbeat_file heartbeat_every socket tcp max_conns queue_limit
      shed_threshold deadline =
    let params =
      match family with
      | None ->
          if colors < 1 then Error "--colors must be at least 1"
          else Ok (delta, Array.make colors delay_bound, None)
      | Some id -> (
          match lookup_family id with
          | Error msg -> Error msg
          | Ok f ->
              let instance = f.build ~seed in
              Ok
                ( instance.Instance.delta,
                  Array.copy instance.Instance.delay,
                  Some instance ))
    in
    match params with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok (delta, delay, instance) ->
        if emit_script then begin
          match instance with
          | None ->
              prerr_endline "--emit-script needs --family";
              1
          | Some instance ->
              let stream = Stream.of_instance instance in
              let buf = Buffer.create 4096 in
              Buffer.add_string buf
                (Printf.sprintf
                   "# %s: %d rounds, %d colors, delta=%d\n"
                   instance.Instance.name (Stream.rounds stream)
                   (Stream.num_colors stream) (Stream.delta stream));
              Stream.to_script ~step_chunk stream buf;
              print_string (Buffer.contents buf);
              0
        end
        else begin
          let address =
            match (socket, tcp) with
            | Some _, Some _ -> Error "--socket and --tcp are exclusive"
            | Some path, None -> Ok (Transport.Unix_socket path)
            | None, Some hostport -> (
                match String.rindex_opt hostport ':' with
                | None -> Error "--tcp wants HOST:PORT"
                | Some i -> (
                    let host = String.sub hostport 0 i in
                    let port =
                      String.sub hostport (i + 1)
                        (String.length hostport - i - 1)
                    in
                    match int_of_string_opt port with
                    | Some port when port >= 0 && port < 65536 ->
                        Ok (Transport.Tcp (host, port))
                    | _ -> Error ("--tcp: bad port " ^ port)))
            | None, None -> Ok (Transport.Stdio (Unix.stdin, Unix.stdout))
          in
          match address with
          | Error msg ->
              prerr_endline msg;
              2
          | Ok address ->
              (* overload/recovery counts live in a registry the
                 heartbeat also reports from, so `rrs status` shows them *)
              let metrics = Rrs_obs.Metrics.create () in
              let heartbeat =
                Option.map
                  (fun path ->
                    Rrs_obs.Heartbeat.create ~every_rounds:heartbeat_every
                      ~path
                      ~status_path:(path ^ ".status")
                      ~registry:metrics ~expose_path:(path ^ ".prom")
                      ~extra:(fun () -> serve_counters metrics)
                      ())
                  heartbeat_file
              in
              let config =
                {
                  Server.policy;
                  n;
                  delta;
                  delay;
                  mini_rounds;
                  checkpoint_dir;
                  checkpoint_every;
                  crash_after;
                  heartbeat;
                  metrics = Some metrics;
                }
              in
              let stop = Atomic.make false in
              let previous =
                List.map
                  (fun s ->
                    ( s,
                      Sys.signal s
                        (Sys.Signal_handle (fun _ -> Atomic.set stop true)) ))
                  [ Sys.sigterm; Sys.sigint ]
              in
              let restore () =
                List.iter
                  (fun (s, d) -> try Sys.set_signal s d with _ -> ())
                  previous
              in
              let limits =
                {
                  Transport.default_limits with
                  max_conns;
                  queue_limit;
                  shed_threshold;
                  command_deadline = deadline;
                }
              in
              let result =
                Fun.protect ~finally:restore (fun () ->
                    Transport.run ~limits
                      ~stop:(fun () -> Atomic.get stop)
                      ~on_ready:(fun bound ->
                        Format.eprintf "serving on %a@." Transport.pp_address
                          bound)
                      config address)
              in
              let code =
                match result with
                | Ok stats ->
                    Format.eprintf
                      "served %d connections, %d commands (busy %d, shed %d, \
                       slow drops %d, wedges %d)@."
                      stats.Transport.conns_accepted stats.Transport.commands
                      stats.Transport.busy stats.Transport.shed
                      stats.Transport.slow_drops stats.Transport.wedges;
                    0
                | Error (`Config msg) ->
                    prerr_endline ("serve: " ^ msg);
                    2
                | Error (`Fatal _) -> 1
              in
              Option.iter Rrs_obs.Heartbeat.finish heartbeat;
              code
        end
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run the scheduler as a long-lived service: line commands on \
          stdin (submit/step/state/reconfigure/checkpoint/quit), journaled \
          and checkpointed for crash restart (see doc/SERVICE.md)")
    Term.(
      const run $ policy_arg $ resources_arg $ delta_arg $ colors_arg
      $ delay_bound_arg $ mini_rounds_arg $ family_arg $ seed_arg
      $ emit_script_arg $ step_chunk_arg $ checkpoint_dir_arg
      $ checkpoint_every_arg $ crash_after_arg $ heartbeat_arg
      $ heartbeat_every_arg $ socket_arg $ tcp_arg $ max_conns_arg
      $ queue_limit_arg $ shed_threshold_arg $ deadline_arg)

(* ------------------------------------------------------------------ *)
(* rrs opt                                                             *)
(* ------------------------------------------------------------------ *)

let opt_cmd =
  let m_arg =
    let doc = "Offline resources." in
    Arg.(value & opt int 1 & info [ "m" ] ~docv:"M" ~doc)
  in
  let exact_arg =
    let doc = "Also run the exact exponential search (tiny instances only)." in
    Arg.(value & flag & info [ "exact" ] ~doc)
  in
  let run family seed m exact =
    match lookup_family family with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok f ->
        let instance = f.build ~seed in
        Format.printf "%a@." Instance.pp instance;
        let lb = Offline_bounds.lower_bound instance ~m in
        let ub =
          min
            (Offline_bounds.static_upper_bound instance ~m)
            (Offline_heuristics.upper_bound instance ~m)
        in
        Format.printf "OPT(m=%d) in [%d, %d]@." m lb ub;
        if exact then
          (match Offline_opt.solve instance ~m with
          | Some opt -> Format.printf "exact OPT = %d@." opt
          | None -> Format.printf "exact search exceeded its state budget@.");
        0
  in
  Cmd.v
    (Cmd.info "opt" ~doc:"Bracket (and optionally solve) the offline optimum")
    Term.(const run $ family_arg $ seed_arg $ m_arg $ exact_arg)

(* ------------------------------------------------------------------ *)
(* rrs describe                                                        *)
(* ------------------------------------------------------------------ *)

let describe_cmd =
  let run family seed =
    match lookup_family family with
    | Error msg ->
        prerr_endline msg;
        1
    | Ok f ->
        let instance = f.build ~seed in
        Format.printf "%a@." Instance.pp instance;
        Format.printf "layer: %s, %s@."
          (Families.layer_to_string f.layer)
          (Solve.layer_to_string (Solve.classify instance));
        let stats = Instance_stats.compute instance in
        Format.printf "%a" Instance_stats.pp stats;
        Format.printf "fluid capacity estimate: >= %d resources@."
          (Instance_stats.min_resources_estimate instance);
        0
  in
  Cmd.v
    (Cmd.info "describe"
       ~doc:"Print load statistics and capacity estimates for a workload")
    Term.(const run $ family_arg $ seed_arg)

(* ------------------------------------------------------------------ *)
(* rrs replay                                                          *)
(* ------------------------------------------------------------------ *)

let replay_cmd =
  let file_arg =
    let doc = "Instance CSV file (format of $(b,--save-instance))." in
    Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc)
  in
  let gantt_arg =
    let doc = "Render a Gantt view of the schedule (small instances)." in
    Arg.(value & flag & info [ "gantt" ] ~doc)
  in
  let run file n gantt =
    match Rrs_trace.Instance_io.load file with
    | Error msg ->
        Printf.eprintf "cannot load %s: %s\n" file msg;
        1
    | Ok instance ->
        Format.printf "%a@." Instance.pp instance;
        let layer, r = Solve.run instance ~n in
        Format.printf "layer: %s@." (Solve.layer_to_string layer);
        Format.printf "cost: %a (executed %d, dropped %d)@." Cost.pp r.cost
          r.executed r.dropped;
        if gantt then begin
          (* re-run recording the schedule (Solve does not record) *)
          match Solve.classify instance with
          | Solve.Direct ->
              let sink = Rrs_obs.Sink.memory () in
              ignore (Engine.run (Engine.config ~n ~sink ()) instance Lru_edf.policy);
              print_string
                (Rrs_trace.Schedule_io.render_gantt
                   (Schedule.of_events ~n ~mini_rounds:1
                      (Rrs_obs.Sink.events sink)))
          | Solve.Distributed | Solve.Pipelined ->
              Format.printf
                "(gantt view is only available for rate-limited instances)@."
        end;
        0
  in
  Cmd.v
    (Cmd.info "replay"
       ~doc:"Load an instance from CSV and solve it with the right layer")
    Term.(const run $ file_arg $ resources_arg $ gantt_arg)

(* ------------------------------------------------------------------ *)

let main =
  let doc = "reconfigurable resource scheduling with variable delay bounds" in
  let info = Cmd.info "rrs" ~version:"1.0.0" ~doc in
  Cmd.group info
    [
      list_cmd;
      simulate_cmd;
      experiment_cmd;
      serve_cmd;
      status_cmd;
      opt_cmd;
      replay_cmd;
      describe_cmd;
    ]

let () =
  Printexc.record_backtrace true;
  exit (Cmd.eval' main)
