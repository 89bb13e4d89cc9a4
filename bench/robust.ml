(* The robustness campaign.

   Part 1 drives a fault-injection campaign through the supervised
   experiment sweep: one deterministic plan per seed, together covering
   every in-sweep probe point (pool.worker, harness.run_policy,
   engine.run, engine.round), each run at --jobs 4.  The contract under
   test: every injection is contained (the sweep never raises), no
   sibling loses its result, and a failed experiment is reported as a
   typed failure.

   Part 2 runs the same plan idea against a JSONL-traced engine run to
   exercise the sink.jsonl probe, and checks the committed artifact
   prefix stays parseable after the injected crash.

   Part 3 serves a short scripted session through an in-process
   socket transport with one injection at each serve.* probe point
   (command, journal, accept, write), and checks each is contained:
   the client gets the documented reply or a dropped connection, the
   loop keeps serving, and a journal fault costs exactly the un-acked
   op.

   Part 4 measures what the machinery costs when it is idle: probe
   points without a plan, probe points under an empty plan, and a
   Record-mode watchdog consuming a full event stream.

   Everything lands in BENCH_robust.json as run_summary lines; the
   campaign records carry an "uncontained" count that CI greps for 0.
   Exit status is nonzero if any acceptance check fails. *)

open Rrs_core
module Families = Rrs_workload.Families
module Registry = Rrs_experiments.Registry
module Fault = Rrs_fault
module Supervisor = Rrs_robust.Supervisor
module Watchdog = Rrs_robust.Watchdog
module Sink = Rrs_obs.Sink

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

let experiment_ids = [ "EXP-1"; "EXP-4"; "EXP-5"; "EXP-13" ]
let campaign_jobs = 4

(* no real sleeping anywhere in the campaign: delays are counted, and
   the supervisor's backoff clock is a no-op *)
let sleeps = Atomic.make 0

let supervise_policy =
  {
    Supervisor.default with
    timeout = Some 120.0;
    retries = 1;
    backoff = 0.0;
    jitter = 0.0;
    clock =
      { Supervisor.now = Unix.gettimeofday; sleep = (fun _ -> ignore ()) };
  }

(* One plan per seed; across the five seeds every in-sweep probe point
   carries at least one Fail rule.  Seed 2's engine.run injection is
   transient, so it also exercises the retry path — note that with a
   timeout set each attempt runs in a fresh domain whose per-domain Nth
   counter restarts, so the injection recurs on the retry and the
   failure is reported after the budget exhausts (still contained).

   Seed 1 uses [Every 1], not [Nth 1]: the pool's work-stealing loop
   makes "how many worker domains pull at least one task" a race, so a
   per-domain Nth trigger would fail a run-dependent number of
   experiments (3 or 4 of 4) and flap the Exact-gated contained count.
   [Every 1] fires on every task's worker probe — all 4 experiments
   fail, deterministically, all outside the supervised thunk (the
   probe precedes it), so this seed pins the sweep's escape-containment
   path and its crash-dump hook. *)
let campaign_rules seed =
  match seed with
  | 1 -> [ Fault.fail_on "pool.worker" (Fault.Every 1) ]
  | 2 -> [ Fault.fail_on ~transient:true "engine.run" (Fault.Nth 2) ]
  | 3 -> [ Fault.fail_on "harness.run_policy" (Fault.Nth 5) ]
  | 4 ->
      [
        Fault.fail_on "engine.round" (Fault.Nth 200);
        Fault.delay_on "engine.round" (Fault.Every 1000) ~seconds:0.001;
      ]
  | _ ->
      [
        Fault.delay_on "engine.round" (Fault.Every 50) ~seconds:0.0005;
        Fault.fail_on ~transient:true "harness.run_policy" (Fault.Prob 0.02);
      ]

let seeds = [ 1; 2; 3; 4; 5 ]

let fired = Hashtbl.create 8

let record_fired plan =
  List.iter
    (fun (point, count) ->
      let existing = Option.value ~default:0 (Hashtbl.find_opt fired point) in
      Hashtbl.replace fired point (existing + count))
    (Fault.injected plan)

let dump_root = "robust_crash_dumps"

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* The flight-recorder contract under fault fire: every final failure
   of the sweep must leave a crash-<id>.jsonl black-box whose first
   line is a flight_recorder header. *)
let check_crash_dumps ~seed ~dir failed =
  let dumps = ref 0 in
  List.iter
    (fun (id, (f : Supervisor.failure)) ->
      if f.phase <> "skipped" then begin
        let path = Rrs_obs.Flight_recorder.crash_dump_path ~dir ~name:id in
        if not (Sys.file_exists path) then
          fail "seed %d: no crash dump for failed %s" seed id
        else begin
          incr dumps;
          match In_channel.with_open_text path In_channel.input_lines with
          | [] | (exception Sys_error _) ->
              fail "seed %d: crash dump for %s is empty" seed id
          | header :: _ -> (
              match Rrs_obs.Json.parse header with
              | Ok j
                when Rrs_obs.Json.member "type" j
                     = Some (Rrs_obs.Json.String "flight_recorder") ->
                  ()
              | _ -> fail "seed %d: crash dump for %s: bad header" seed id)
        end
      end)
    failed;
  !dumps

let experiment_campaign () =
  print_endline
    "================================================================";
  print_endline " Fault-injection campaign (supervised experiment sweep)";
  print_endline
    "================================================================";
  let uncontained = ref 0 in
  let contained = ref 0 in
  let crash_dumps = ref 0 in
  rm_rf dump_root;
  Unix.mkdir dump_root 0o755;
  let recorder = Rrs_obs.Flight_recorder.create () in
  List.iter
    (fun seed ->
      let plan =
        Fault.plan ~seed
          ~sleep:(fun _ -> ignore (Atomic.fetch_and_add sleeps 1))
          (campaign_rules seed)
      in
      let dump_dir = Filename.concat dump_root (Printf.sprintf "seed-%d" seed) in
      let results =
        try
          Fault.with_plan plan (fun () ->
              Rrs_obs.Flight_recorder.with_recorder ~dump_dir recorder
                (fun () ->
                  Registry.run_many ~jobs:campaign_jobs
                    ~policy:supervise_policy ~keep_going:true experiment_ids))
        with e ->
          incr uncontained;
          fail "seed %d: injection escaped the sweep: %s" seed
            (Printexc.to_string e);
          []
      in
      record_fired plan;
      let failed = Registry.failures results in
      contained := !contained + List.length failed;
      crash_dumps := !crash_dumps + check_crash_dumps ~seed ~dir:dump_dir failed;
      if results <> [] && List.length results <> List.length experiment_ids
      then
        fail "seed %d: sweep returned %d of %d results" seed
          (List.length results) (List.length experiment_ids);
      List.iteri
        (fun i (id, _) ->
          if id <> List.nth experiment_ids i then
            fail "seed %d: result order broken at %d (%s)" seed i id)
        results;
      Printf.printf "seed %d: %d/%d experiments failed (all contained)\n" seed
        (List.length failed) (List.length experiment_ids))
    seeds;
  (* clean control sweep: no plan installed — with the same recorder
     armed, the supervisor must take no crash dump, and a heartbeat
     observed ambiently by every engine documents the run (the CI
     smoke uploads its stream + status files) *)
  let clean_dir = Filename.concat dump_root "clean" in
  let hb =
    Rrs_obs.Heartbeat.create ~every_rounds:256 ~path:"robust_heartbeat.jsonl"
      ~status_path:"robust_heartbeat.status" ()
  in
  let clean_results =
    Rrs_obs.Flight_recorder.with_recorder ~dump_dir:clean_dir recorder
      (fun () ->
        Rrs_obs.Heartbeat.with_heartbeat hb (fun () ->
            Registry.run_many ~jobs:campaign_jobs ~policy:supervise_policy
              ~keep_going:true experiment_ids))
  in
  Rrs_obs.Heartbeat.finish hb;
  if Registry.failures clean_results <> [] then
    fail "clean sweep reported failures";
  if Sys.file_exists clean_dir then
    fail "clean sweep produced crash dumps";
  if Rrs_obs.Heartbeat.rounds_observed hb = 0 then
    fail "clean sweep heartbeat observed no rounds";
  Printf.printf
    "clean sweep: 0 failures, 0 crash dumps, heartbeat %d beats over %d \
     rounds\n"
    (Rrs_obs.Heartbeat.beats hb)
    (Rrs_obs.Heartbeat.rounds_observed hb);
  (!contained, !uncontained, !crash_dumps, Rrs_obs.Heartbeat.rounds_observed hb)

let sink_campaign () =
  print_endline
    "================================================================";
  print_endline " Crash-safe artifacts (sink.jsonl injections, torn traces)";
  print_endline
    "================================================================";
  let router = (Option.get (Families.find "router")).build ~seed:1 in
  let uncontained = ref 0 in
  let contained = ref 0 in
  let parseable = ref 0 in
  let path = "robust_sink_campaign.jsonl" in
  List.iter
    (fun seed ->
      let plan =
        Fault.plan ~seed [ Fault.fail_on "sink.jsonl" (Fault.Nth (25 * seed)) ]
      in
      (match
         Fault.with_plan plan (fun () ->
             Sink.with_jsonl path (fun sink ->
                 let ({ policy; _ } : Lru_edf.instrumented) =
                   Lru_edf.make ~sink router ~n:8
                 in
                 ignore
                   (Engine.run_policy (Engine.config ~n:8 ~sink ()) router
                      policy)))
       with
      | () -> fail "seed %d: sink.jsonl injection never fired" seed
      | exception Rrs_fault.Injected _ -> incr contained
      | exception e ->
          incr uncontained;
          fail "seed %d: sink injection escaped as %s" seed
            (Printexc.to_string e));
      record_fired plan;
      (* the crash was contained by with_jsonl's commit-on-raise: the
         renamed artifact must hold the complete prefix of event lines *)
      match In_channel.with_open_text path In_channel.input_lines with
      | exception Sys_error msg -> fail "seed %d: no artifact: %s" seed msg
      | lines ->
          if lines = [] then fail "seed %d: artifact is empty" seed;
          if
            List.for_all
              (fun line -> Result.is_ok (Rrs_obs.Event.of_line line))
              lines
          then incr parseable
          else fail "seed %d: artifact has an unparseable line" seed)
    seeds;
  (try Sys.remove path with Sys_error _ -> ());
  (!contained, !uncontained, !parseable)

(* ------------------------------------------------------------------ *)
(* the service probe points                                            *)
(* ------------------------------------------------------------------ *)

module Server = Rrs_service.Server
module Transport = Rrs_service.Transport

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect sock =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  (* a server that stops answering fails the case, not the campaign *)
  Unix.setsockopt_float fd Unix.SO_RCVTIMEO 5.0;
  let rec go n =
    match Unix.connect fd (Unix.ADDR_UNIX sock) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
        Unix.sleepf 0.02;
        go (n - 1)
  in
  go 250;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let recv c = try In_channel.input_line c.ic with Sys_error _ -> None

let request c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc;
  recv c

let hang_up c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* Serve one case: [Transport.run] under [rules] in its own domain,
   [script] as the client, then a stop.  Returns the plan and whether
   the loop came back with [Ok] (nothing escaped it). *)
let serve_config =
  { Server.default_config with n = 4; delta = 2; delay = Array.make 4 6 }

let serve_case ~dir rules script =
  let sock = Filename.concat dir "robust.sock" in
  let state = Filename.concat dir "state" in
  rm_rf dir;
  Unix.mkdir dir 0o755;
  Unix.mkdir state 0o755;
  let config = { serve_config with checkpoint_dir = Some state } in
  let plan = Fault.plan rules in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Fault.with_plan plan (fun () ->
            Transport.run
              ~stop:(fun () -> Atomic.get stop)
              ~on_ready:(fun _ -> Atomic.set ready true)
              config (Transport.Unix_socket sock)))
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  (try script sock
   with e -> fail "serve: client raised %s" (Printexc.to_string e));
  Atomic.set stop true;
  let survived =
    match Domain.join server with
    | Ok _ -> true
    | Error (`Config e | `Fatal e) ->
        fail "serve: transport refused to start: %s" e;
        false
    | exception e ->
        fail "serve: the loop died: %s" (Printexc.to_string e);
        false
  in
  rm_rf dir;
  (plan, survived)

let expect what prefix = function
  | Some line when String.starts_with ~prefix line -> ()
  | Some line -> fail "serve: %s: got %S, want %S..." what line prefix
  | None -> fail "serve: %s: connection closed, want %S..." what prefix

let expect_hangup what = function
  | None -> ()
  | Some line -> fail "serve: %s: got %S, want a dropped connection" what line

(* The state line of a session that ran only the one acked op. *)
let acked_state () =
  let h = Server.host serve_config in
  let s = Server.open_session h Server.default_session in
  ignore
    (Server.exec h s
       (Rrs_service.Protocol.Submit { round = Some 0; color = 1; count = 2 }));
  Rrs_service.Snapshot.to_line (Server.session_snapshot s)

(* accept, command and journal faults on one server: the first
   connection is dropped at accept; on the second, the second command
   faults before it runs and the third after its apply, in the journal
   append — that op is un-acked, so the wedged session comes back from
   its journal without it *)
let command_script sock =
  let dropped = connect sock in
  expect_hangup "accept fault" (recv dropped);
  hang_up dropped;
  let c = connect sock in
  expect "greeting" "ok session" (recv c);
  expect "first submit" "ok submitted 2 jobs" (request c "submit 0 1 2");
  expect "command fault" "err transient fault injected at serve.command"
    (request c "submit 0 2 2");
  expect "journal fault" "err transient fault injected at serve.journal"
    (request c "submit 0 2 1");
  expect "restored state" (acked_state ()) (request c "state");
  expect "step after restore" "ok stepped 1 round" (request c "step 1");
  expect "bye" "ok bye" (request c "quit");
  hang_up c

(* a write fault drops the connection it hits (here the greeting's);
   the next client is served as usual *)
let write_script sock =
  let dropped = connect sock in
  expect_hangup "write fault" (recv dropped);
  hang_up dropped;
  let c = connect sock in
  expect "greeting" "ok session" (recv c);
  expect "bye" "ok bye" (request c "quit");
  hang_up c

let serve_campaign () =
  print_endline
    "================================================================";
  print_endline " Service probe points (in-process socket transport)";
  print_endline
    "================================================================";
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rrs_robust_serve_%d" (Unix.getpid ()))
  in
  let cases =
    [
      ( [
          Fault.fail_on "serve.accept" (Fault.Nth 1);
          Fault.fail_on ~transient:true "serve.command" (Fault.Nth 2);
          Fault.fail_on ~transient:true "serve.journal" (Fault.Nth 2);
        ],
        command_script );
      ([ Fault.fail_on "serve.write" (Fault.Nth 1) ], write_script);
    ]
  in
  let contained = ref 0 in
  let uncontained = ref 0 in
  List.iter
    (fun (rules, script) ->
      let failed_before = List.length !failures in
      let plan, survived = serve_case ~dir rules script in
      record_fired plan;
      let injected =
        List.fold_left (fun acc (_, n) -> acc + n) 0 (Fault.injected plan)
      in
      (* contained: the loop lived and every reply was the documented one *)
      if survived && List.length !failures = failed_before then
        contained := !contained + injected
      else uncontained := !uncontained + injected)
    cases;
  Printf.printf "%d serve.* injections, %d contained\n"
    (!contained + !uncontained) !contained;
  (!contained, !uncontained)

(* ------------------------------------------------------------------ *)
(* overhead                                                            *)
(* ------------------------------------------------------------------ *)

let best_of repeats f =
  let best = ref infinity in
  for _ = 1 to repeats do
    let t0 = Unix.gettimeofday () in
    f ();
    let dt = Unix.gettimeofday () -. t0 in
    if dt < !best then best := dt
  done;
  !best

let overhead () =
  print_endline
    "================================================================";
  print_endline " Probe and watchdog overhead (dlru-edf/router, n=8)";
  print_endline
    "================================================================";
  let router = (Option.get (Families.find "router")).build ~seed:1 in
  let repeats = 10 in
  let run sink =
    let ({ policy; _ } : Lru_edf.instrumented) =
      if Sink.enabled sink then Lru_edf.make ~sink router ~n:8
      else Lru_edf.make router ~n:8
    in
    ignore (Engine.run_policy (Engine.config ~n:8 ~sink ()) router policy)
  in
  let no_plan = best_of repeats (fun () -> run Sink.null) in
  let empty_plan =
    best_of repeats (fun () ->
        Fault.with_plan (Fault.plan []) (fun () -> run Sink.null))
  in
  let wd_events = ref 0 in
  let watchdog =
    best_of repeats (fun () ->
        let wd = Watchdog.create ~policy:Watchdog.Record ~delta:router.delta () in
        run (Watchdog.attach wd Sink.null);
        Watchdog.finish wd;
        wd_events := Watchdog.events_seen wd;
        if not (Watchdog.ok wd) then
          List.iter
            (fun v ->
              fail "watchdog: %s" (Format.asprintf "%a" Watchdog.pp_violation v))
            (Watchdog.violations wd))
  in
  Printf.printf "no plan:     %.3f ms/run\n" (no_plan *. 1e3);
  Printf.printf "empty plan:  %.3f ms/run (%+.1f%%)\n" (empty_plan *. 1e3)
    ((empty_plan -. no_plan) /. no_plan *. 100.);
  Printf.printf "watchdog:    %.3f ms/run (%d events checked)\n"
    (watchdog *. 1e3) !wd_events;
  (no_plan, empty_plan, watchdog, !wd_events)

(* ------------------------------------------------------------------ *)

let () =
  let t0 = Unix.gettimeofday () in
  let exp_contained, exp_uncontained, crash_dumps, heartbeat_rounds =
    experiment_campaign ()
  in
  let sink_contained, sink_uncontained, sink_parseable = sink_campaign () in
  let serve_contained, serve_uncontained = serve_campaign () in
  (* every standard probe point must have fired somewhere *)
  List.iter
    (fun point ->
      if Option.value ~default:0 (Hashtbl.find_opt fired point) = 0 then
        fail "probe point %s never fired" point)
    Fault.standard_points;
  let no_plan, empty_plan, watchdog_seconds, wd_events = overhead () in
  let fired_analysis =
    List.map
      (fun point ->
        ( "fired_" ^ String.map (fun c -> if c = '.' then '_' else c) point,
          float_of_int (Option.value ~default:0 (Hashtbl.find_opt fired point))
        ))
      Fault.standard_points
  in
  Out_channel.with_open_text "BENCH_robust.json" (fun oc ->
      let write = Rrs_obs.Run_summary.write oc in
      write
        (Rrs_obs.Run_summary.make ~id:"fault-campaign" ~kind:"bench"
           ~config:
             [
               ("experiments", String.concat "," experiment_ids);
               ("jobs", string_of_int campaign_jobs);
               ("seeds", string_of_int (List.length seeds));
             ]
           ~analysis:
             ([
                ("contained", float_of_int exp_contained);
                ("uncontained", float_of_int exp_uncontained);
                ("crash_dumps", float_of_int crash_dumps);
                ("heartbeat_rounds", float_of_int heartbeat_rounds);
                ("delays_served", float_of_int (Atomic.get sleeps));
              ]
             @ fired_analysis)
           ());
      write
        (Rrs_obs.Run_summary.make ~id:"sink-campaign" ~kind:"bench"
           ~config:[ ("seeds", string_of_int (List.length seeds)) ]
           ~analysis:
             [
               ("contained", float_of_int sink_contained);
               ("uncontained", float_of_int sink_uncontained);
               ("artifacts_parseable", float_of_int sink_parseable);
             ]
           ());
      write
        (Rrs_obs.Run_summary.make ~id:"serve-campaign" ~kind:"bench"
           ~config:
             [
               ( "points",
                 "serve.accept,serve.command,serve.journal,serve.write" );
             ]
           ~analysis:
             [
               ("contained", float_of_int serve_contained);
               ("uncontained", float_of_int serve_uncontained);
             ]
           ());
      write
        (Rrs_obs.Run_summary.make ~id:"robust-overhead" ~kind:"bench"
           ~config:[ ("family", "router"); ("policy", "dlru-edf"); ("n", "8") ]
           ~analysis:
             [
               ("no_plan_seconds", no_plan);
               ("empty_plan_seconds", empty_plan);
               ("watchdog_seconds", watchdog_seconds);
               ("watchdog_events", float_of_int wd_events);
             ]
           ~timings:
             [
               {
                 Rrs_obs.Run_summary.phase = "no_plan";
                 seconds = no_plan;
                 count = 10;
               };
               {
                 Rrs_obs.Run_summary.phase = "watchdog";
                 seconds = watchdog_seconds;
                 count = 10;
               };
             ]
           ()));
  (match Rrs_obs.Run_summary.load "BENCH_robust.json" with
  | Ok summaries when List.length summaries = 4 -> ()
  | Ok summaries ->
      fail "BENCH_robust.json holds %d summaries, expected 4"
        (List.length summaries)
  | Error msg -> fail "BENCH_robust.json unreadable: %s" msg);
  Printf.printf "campaign finished in %.1f s\n" (Unix.gettimeofday () -. t0);
  print_endline "run summaries written to BENCH_robust.json";
  match List.rev !failures with
  | [] -> print_endline "robust bench: all acceptance checks passed"
  | msgs ->
      List.iter (fun m -> Printf.eprintf "FAIL: %s\n" m) msgs;
      exit 1
