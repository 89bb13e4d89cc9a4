(* The service-mode bench: evidence that the long-lived streaming
   scheduler is (1) memory-bounded, (2) fast enough to live in a request
   path, and (3) restartable without drift.

   Part 1 — streamed throughput: a Session fed just-in-time at steady
   load for >= 10k rounds.  Measures rounds/sec and, after a full major
   collection on both sides of the measured segment, the growth in live
   words per round.  The memory-boundedness contract (doc/SERVICE.md)
   says that growth is ~zero: the session retains pending jobs and
   policy state, never per-round history.  A hard acceptance check fails
   the bench if residency grows; the per-round metrics are also gated by
   benchdiff (analysis.alloc_* / analysis.*_rounds_per_sec rules).

   Part 2 — durability overhead: what a journal append and an atomic
   checkpoint commit cost, measured against the same streamed session.
   Wall-clock only (Info under the gate), recorded so drifts show up in
   review even though they never fail CI on machine noise.

   Part 3 — kill/restore drill: for every workload family, write the
   journal a server killed at round k would leave behind (header + ops,
   no checkpoint, no goodbye), restart a server on it over the stdio
   transport, finish the stream, and diff the final checkpoint against
   the uninterrupted batch Engine.run.  Any differing counter (round,
   executed, dropped, recolorings, reconfig cost, final cache) counts
   as a divergence;
   "divergences" is Exact-gated by benchdiff and the bench exits
   nonzero if it is not 0. *)

open Rrs_core
module Families = Rrs_workload.Families
module Stream = Rrs_workload.Arrival_stream
module Journal = Rrs_service.Journal
module Snapshot = Rrs_service.Snapshot
module Server = Rrs_service.Server
module Transport = Rrs_service.Transport
module Session = Engine.Session
module Sink = Rrs_obs.Sink

let rounds = ref 20_000
let warmup = ref 2_000
let colors = ref 64
let n = ref 8
let repeats = ref 3
let out = ref "BENCH_serve.json"

let spec =
  [
    ("--rounds", Arg.Set_int rounds, "INT measured streamed rounds (part 1)");
    ("--warmup", Arg.Set_int warmup, "INT rounds before measurement starts");
    ("--colors", Arg.Set_int colors, "INT color universe for the stream");
    ("--n", Arg.Set_int n, "INT online resources");
    ("--repeats", Arg.Set_int repeats, "INT best-of timing repetitions");
    ("--out", Arg.Set_string out, "FILE JSONL artifact path");
  ]

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "serve.exe: service-mode throughput, durability overhead, kill/restore \
     drill"

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

(* ------------------------------------------------------------------ *)
(* Part 1: streamed throughput and memory residency                    *)
(* ------------------------------------------------------------------ *)

let steady_session () =
  Session.create (Engine.config ~n:!n ()) ~delta:4
    ~delay:(Array.make !colors 16) Lru_edf.policy

(* steady load: a few colors per round, rotating over the universe so
   the ranking structures see recolorings, not just a hot prefix *)
let feed_round session round =
  let c1 = round mod !colors and c2 = (3 * round + 1) mod !colors in
  ignore (Session.feed session ~round ~color:c1 ~count:3);
  if c2 <> c1 then ignore (Session.feed session ~round ~color:c2 ~count:2)

let stream_once () =
  let session = steady_session () in
  for round = 0 to !warmup - 1 do
    feed_round session round;
    Session.step session
  done;
  Gc.full_major ();
  let live0 = (Gc.stat ()).Gc.live_words in
  let minor0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for i = 0 to !rounds - 1 do
    feed_round session (!warmup + i);
    Session.step session
  done;
  let seconds = Unix.gettimeofday () -. t0 in
  let minor_per_round = (Gc.minor_words () -. minor0) /. float_of_int !rounds in
  Gc.full_major ();
  let live1 = (Gc.stat ()).Gc.live_words in
  let executed = Session.executed session in
  ignore (Session.finish session);
  (seconds, live1 - live0, minor_per_round, executed)

let throughput () =
  print_endline
    "================================================================";
  Printf.printf " Streamed throughput (dlru-edf, %d colors, n=%d, %d rounds)\n"
    !colors !n !rounds;
  print_endline
    "================================================================";
  let best_seconds = ref infinity in
  let growth = ref 0 in
  let minor_per_round = ref 0.0 in
  for r = 1 to !repeats do
    let seconds, live_growth, minor, executed = stream_once () in
    if seconds < !best_seconds then best_seconds := seconds;
    if r = 1 then begin
      growth := live_growth;
      minor_per_round := minor;
      if executed = 0 then fail "streamed run executed nothing"
    end
  done;
  let per_round = float_of_int !growth /. float_of_int !rounds in
  let rps = float_of_int !rounds /. !best_seconds in
  Printf.printf "rounds/sec:        %.0f\n" rps;
  Printf.printf "minor words/round: %.1f\n" !minor_per_round;
  Printf.printf "live growth:       %d words over %d rounds (%.4f/round)\n"
    !growth !rounds per_round;
  (* the hard flatness contract: a 10k+ round stream must not retain
     per-round state.  One word per round of drift would already be a
     leak; allow slack for GC accounting noise. *)
  if per_round > 1.0 then
    fail "live words grew %.4f/round over %d rounds - per-round state is \
          being retained"
      per_round !rounds;
  (rps, per_round, !minor_per_round)

(* ------------------------------------------------------------------ *)
(* Part 2: durability overhead                                         *)
(* ------------------------------------------------------------------ *)

let temp_dir name =
  let dir =
    Filename.concat
      (Filename.get_temp_dir_name ())
      (Printf.sprintf "rrs_bench_%s_%d" name (Unix.getpid ()))
  in
  if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
  dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Unix.rmdir dir
  end

let durability () =
  print_endline
    "================================================================";
  print_endline " Durability overhead (journal append, checkpoint commit)";
  print_endline
    "================================================================";
  let dir = temp_dir "durability" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let session = steady_session () in
  let header =
    {
      Journal.version = Journal.header_version;
      policy = "dlru-edf";
      n = !n;
      delta = 4;
      delay = Array.make !colors 16;
      mini_rounds = 1;
    }
  in
  let w = Journal.create (Filename.concat dir "journal.jsonl") header in
  let appends = 2_000 in
  let t0 = Unix.gettimeofday () in
  for round = 0 to (appends / 2) - 1 do
    let color = round mod !colors in
    ignore (Session.feed session ~round ~color ~count:2);
    Journal.append w (Journal.Submit { round; color; count = 2 });
    Session.step session;
    Journal.append w (Journal.Step 1)
  done;
  let append_seconds = (Unix.gettimeofday () -. t0) /. float_of_int appends in
  Journal.close w;
  let ckpt_path = Filename.concat dir "checkpoint.json" in
  let checkpoints = 200 in
  let t0 = Unix.gettimeofday () in
  for i = 1 to checkpoints do
    (* the server's commit: serialize, write to a temp sibling, rename *)
    Sink.with_jsonl ckpt_path (fun sink ->
        Sink.write_line sink
          (Snapshot.to_line (Snapshot.of_session ~ops:i session)))
  done;
  let checkpoint_seconds =
    (Unix.gettimeofday () -. t0) /. float_of_int checkpoints
  in
  ignore (Session.finish session);
  Printf.printf "journal append:    %.2f us/op\n" (append_seconds *. 1e6);
  Printf.printf "checkpoint commit: %.2f us (%d-color state)\n"
    (checkpoint_seconds *. 1e6) !colors;
  (append_seconds, checkpoint_seconds)

(* ------------------------------------------------------------------ *)
(* Part 3: kill/restore drill                                          *)
(* ------------------------------------------------------------------ *)

let run_server config script =
  let in_path = Filename.temp_file "serve_in" ".txt" in
  let out_path = Filename.temp_file "serve_out" ".txt" in
  Out_channel.with_open_text in_path (fun oc -> output_string oc script);
  let fd_in = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let fd_out = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let code =
    match Transport.run config (Transport.Stdio (fd_in, fd_out)) with
    | Ok _ -> 0
    | Error (`Fatal _) -> 1
    | Error (`Config _) -> 2
  in
  Unix.close fd_in;
  Unix.close fd_out;
  let output = In_channel.with_open_text out_path In_channel.input_lines in
  Sys.remove in_path;
  Sys.remove out_path;
  (code, output)

let submit_ops instance =
  let stream = Stream.of_instance instance in
  let rec collect acc =
    match Stream.next stream with
    | None -> List.rev acc
    | Some (round, batch) ->
        collect
          (List.rev_append
             (List.map
                (fun (color, count) -> Journal.Submit { round; color; count })
                batch)
             acc)
  in
  collect []

let drill_family id =
  let f = Option.get (Families.find id) in
  let instance = f.build ~seed:1 in
  let horizon = instance.Instance.horizon in
  let k = max 1 ((horizon + 1) / 2) in
  let dir = temp_dir ("drill_" ^ id) in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let header =
    {
      Journal.version = Journal.header_version;
      policy = "dlru-edf";
      n = !n;
      delta = instance.Instance.delta;
      delay = Array.copy instance.Instance.delay;
      mini_rounds = 1;
    }
  in
  let w = Journal.create (Filename.concat dir "journal.jsonl") header in
  List.iter (fun op -> Journal.append w op) (submit_ops instance);
  Journal.append w (Journal.Step k);
  Journal.close w;
  let config =
    {
      Server.default_config with
      n = !n;
      delta = instance.Instance.delta;
      delay = Array.copy instance.Instance.delay;
      checkpoint_dir = Some dir;
      checkpoint_every = 0;
    }
  in
  let t0 = Unix.gettimeofday () in
  let code, output =
    run_server config (Printf.sprintf "step %d\nquit\n" (horizon + 1 - k))
  in
  let seconds = Unix.gettimeofday () -. t0 in
  let divergences = ref 0 in
  let diverge fmt =
    Printf.ksprintf
      (fun msg ->
        incr divergences;
        fail "%s: %s" id msg)
      fmt
  in
  if code <> 0 then diverge "restored server exited %d" code;
  (match output with
  | first :: _
    when String.length first >= 11 && String.sub first 0 11 = "ok restored" ->
      ()
  | first :: _ -> diverge "expected a restore greeting, got %S" first
  | [] -> diverge "no server output");
  (match
     In_channel.with_open_text
       (Filename.concat dir "checkpoint.json")
       In_channel.input_line
   with
  | exception Sys_error msg -> diverge "no final checkpoint: %s" msg
  | None -> diverge "empty final checkpoint"
  | Some line -> (
      match Snapshot.of_line line with
      | Error e -> diverge "unreadable final checkpoint: %s" e
      | Ok snapshot ->
          let batch = Engine.run (Engine.config ~n:!n ()) instance Lru_edf.policy in
          let check name expected actual =
            if expected <> actual then
              diverge "%s: batch %d, restored %d" name expected actual
          in
          check "round" (horizon + 1) snapshot.Snapshot.round;
          check "executed" batch.Engine.executed snapshot.Snapshot.executed;
          check "dropped" batch.Engine.dropped snapshot.Snapshot.dropped;
          check "recolorings" batch.Engine.reconfigurations
            snapshot.Snapshot.reconfigurations;
          check "reconfig_cost" batch.Engine.cost.Cost.reconfig
            snapshot.Snapshot.reconfig_cost;
          check "pending" 0 snapshot.Snapshot.pending_jobs;
          if snapshot.Snapshot.cache <> batch.Engine.final_cache then
            diverge "final cache differs"));
  (!divergences, seconds, horizon + 1)

let restore_drill () =
  print_endline
    "================================================================";
  print_endline " Kill/restore drill (journal replay vs batch, all families)";
  print_endline
    "================================================================";
  let ids = Families.ids () in
  let divergences = ref 0 in
  let restore_seconds = ref 0.0 in
  let rounds_replayed = ref 0 in
  List.iter
    (fun id ->
      let d, seconds, rounds = drill_family id in
      divergences := !divergences + d;
      restore_seconds := !restore_seconds +. seconds;
      rounds_replayed := !rounds_replayed + rounds;
      Printf.printf "%-16s %s (%.1f ms, %d rounds)\n" id
        (if d = 0 then "identical" else Printf.sprintf "%d DIVERGENCES" d)
        (seconds *. 1e3) rounds)
    ids;
  (!divergences, !restore_seconds, List.length ids, !rounds_replayed)

(* ------------------------------------------------------------------ *)

let () =
  let t0 = Unix.gettimeofday () in
  let rps, live_growth_per_round, minor_per_round = throughput () in
  let append_seconds, checkpoint_seconds = durability () in
  let divergences, restore_seconds, families, rounds_replayed =
    restore_drill ()
  in
  Out_channel.with_open_text !out (fun oc ->
      let write = Rrs_obs.Run_summary.write oc in
      write
        (Rrs_obs.Run_summary.make ~id:"serve-throughput" ~kind:"bench"
           ~config:
             [
               ("policy", "dlru-edf");
               ("colors", string_of_int !colors);
               ("n", string_of_int !n);
               ("rounds", string_of_int !rounds);
               ("warmup", string_of_int !warmup);
             ]
           ~analysis:
             [
               ("stream_rounds_per_sec", rps);
               ("alloc_live_growth_words_per_round", live_growth_per_round);
               ("alloc_minor_words_per_round", minor_per_round);
             ]
           ~timings:
             [
               {
                 Rrs_obs.Run_summary.phase = "stream";
                 seconds = float_of_int !rounds /. rps;
                 count = !repeats;
               };
             ]
           ());
      write
        (Rrs_obs.Run_summary.make ~id:"serve-durability" ~kind:"bench"
           ~config:[ ("colors", string_of_int !colors) ]
           ~analysis:
             [
               ("journal_append_seconds", append_seconds);
               ("checkpoint_seconds", checkpoint_seconds);
             ]
           ());
      write
        (Rrs_obs.Run_summary.make ~id:"serve-restore" ~kind:"bench"
           ~config:
             [ ("policy", "dlru-edf"); ("kill_at", "half the horizon") ]
           ~analysis:
             [
               ("divergences", float_of_int divergences);
               ("families", float_of_int families);
               ("rounds_replayed", float_of_int rounds_replayed);
               ("restore_seconds", restore_seconds);
             ]
           ()));
  (match Rrs_obs.Run_summary.load !out with
  | Ok summaries when List.length summaries = 3 -> ()
  | Ok summaries ->
      fail "%s holds %d summaries, expected 3" !out (List.length summaries)
  | Error msg -> fail "%s unreadable: %s" !out msg);
  Printf.printf "bench finished in %.1f s\n" (Unix.gettimeofday () -. t0);
  Printf.printf "run summaries written to %s\n" !out;
  match List.rev !failures with
  | [] -> print_endline "serve bench: all acceptance checks passed"
  | msgs ->
      List.iter (fun m -> Printf.eprintf "FAIL: %s\n" m) msgs;
      exit 1
