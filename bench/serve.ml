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

   Part 2 — durability overhead: what a journal append and a server
   checkpoint (snapshot line, full machine state, and the commit that
   overwrites checkpoint.json.prev in place and rotates it to
   checkpoint.json) cost, measured against the same steady load.
   Wall-clock only (Info under the gate), recorded so drifts show up
   in review even though they never fail CI on machine noise.

   Part 3 — kill/restore drill: for every workload family, two kills
   at round k — one that leaves only the journal (header + ops, no
   checkpoint, no goodbye), one just after a full-state checkpoint —
   then restart a server on each over the stdio transport, finish the
   stream, and diff the final checkpoint against the uninterrupted
   batch Engine.run.  Any differing counter (round, executed, dropped,
   recolorings, reconfig cost, final cache) counts as a divergence;
   "divergences" is Exact-gated by benchdiff and the bench exits
   nonzero if it is not 0.  The checkpointed restores must take the
   fast path and replay no op ("checkpointed_replayed_ops", Exact).

   Part 4 — restore scaling: one session under the steady load,
   restored at 10k and at ~100k ops of history (both 16 ops past a
   checkpoint).  The ops each restore replayed are Exact-gated, and
   the bench fails if one exceeds --checkpoint-every: that is the
   bound on restart work.  "restore_growth", the ratio of the two
   restore times within this process, is reported as information: a
   replay of the whole history makes it ~10, and what remains of it
   here is the read and hash of the journal prefix, which grows with
   the history (sub-millisecond samples, so it is noisy). *)

open Rrs_core
module Families = Rrs_workload.Families
module Stream = Rrs_workload.Arrival_stream
module Journal = Rrs_service.Journal
module Snapshot = Rrs_service.Snapshot
module Server = Rrs_service.Server
module Transport = Rrs_service.Transport
module Session = Engine.Session

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

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path

let steady_config dir =
  {
    Server.default_config with
    n = !n;
    delta = 4;
    delay = Array.make !colors 16;
    checkpoint_dir = Some dir;
  }

(* The steady load of [feed_round] as journal ops, one at a time. *)
let steady_ops () =
  let queue = Queue.create () and round = ref 0 in
  fun () ->
    if Queue.is_empty queue then begin
      let r = !round in
      let c1 = r mod !colors and c2 = ((3 * r) + 1) mod !colors in
      Queue.add (Journal.Submit { round = r; color = c1; count = 3 }) queue;
      if c2 <> c1 then
        Queue.add (Journal.Submit { round = r; color = c2; count = 2 }) queue;
      Queue.add (Journal.Step 1) queue;
      incr round
    end;
    Queue.pop queue

let run_to h s next ~ops =
  while Server.session_ops s < ops do
    let op = next () in
    match Server.apply_op s op with
    | Ok () -> Server.commit h s op
    | Error e -> failwith ("steady load refused: " ^ e)
  done

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
  ignore (Session.finish session);
  (* the server's checkpoint of the same load: snapshot line and machine
     state into one buffer, a temp sibling, a rename *)
  let cdir = Filename.concat dir "server" in
  let h = Server.host { (steady_config cdir) with checkpoint_every = 0 } in
  let s = Server.open_session h Server.default_session in
  run_to h s (steady_ops ()) ~ops:appends;
  let checkpoints = 200 in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to checkpoints do
    ignore (Server.checkpoint_session h s)
  done;
  let checkpoint_seconds =
    (Unix.gettimeofday () -. t0) /. float_of_int checkpoints
  in
  let checkpoint_bytes =
    (Unix.stat (Filename.concat cdir "checkpoint.json")).Unix.st_size
  in
  Server.abandon_session h s;
  Printf.printf "journal append:    %.2f us/op\n" (append_seconds *. 1e6);
  Printf.printf "checkpoint commit: %.2f us (%d-color state, %d bytes)\n"
    (checkpoint_seconds *. 1e6) !colors checkpoint_bytes;
  (append_seconds, checkpoint_seconds, checkpoint_bytes)

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

let drill_config (instance : Instance.t) dir =
  {
    Server.default_config with
    n = !n;
    delta = instance.delta;
    delay = Array.copy instance.delay;
    checkpoint_dir = Some dir;
    checkpoint_every = 0;
  }

(* The durable state of a server killed right after it stepped to round
   [k]: the journal alone, or the journal and a full-state checkpoint
   of that very moment. *)
let kill_at ~checkpoint (instance : Instance.t) ~k dir =
  let h = Server.host (drill_config instance dir) in
  let s = Server.open_session h Server.default_session in
  List.iter
    (fun op ->
      match Server.apply_op s op with
      | Ok () -> Server.commit h s op
      | Error e -> failwith ("drill op refused: " ^ e))
    (submit_ops instance @ [ Journal.Step k ]);
  if checkpoint then ignore (Server.checkpoint_session h s);
  Server.abandon_session h s

let drill_family ~checkpoint id =
  let f = Option.get (Families.find id) in
  let instance = f.build ~seed:1 in
  let horizon = instance.Instance.horizon in
  let k = max 1 ((horizon + 1) / 2) in
  let dir = temp_dir ("drill_" ^ id) in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  kill_at ~checkpoint instance ~k dir;
  let metrics = Rrs_obs.Metrics.create () in
  let config = { (drill_config instance dir) with metrics = Some metrics } in
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
      match Rrs_torture.Torture.snapshot_of_line line with
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
  let replayed =
    Rrs_obs.Metrics.value
      (Rrs_obs.Metrics.counter metrics "serve_restore_replayed_ops")
  in
  (!divergences, seconds, horizon + 1, replayed)

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
  let checkpointed_replayed = ref 0 in
  List.iter
    (fun id ->
      let d, seconds, rounds, _ = drill_family ~checkpoint:false id in
      let dc, cseconds, _, replayed = drill_family ~checkpoint:true id in
      divergences := !divergences + d + dc;
      restore_seconds := !restore_seconds +. seconds;
      rounds_replayed := !rounds_replayed + rounds;
      checkpointed_replayed := !checkpointed_replayed + replayed;
      if replayed <> 0 then
        fail "%s: restore from a checkpoint replayed %d ops" id replayed;
      Printf.printf "%-16s %s (%.1f ms journal only, %.1f ms from a checkpoint, %d rounds)\n"
        id
        (if d + dc = 0 then "identical"
         else Printf.sprintf "%d DIVERGENCES" (d + dc))
        (seconds *. 1e3) (cseconds *. 1e3) rounds)
    ids;
  ( !divergences,
    !restore_seconds,
    List.length ids,
    !rounds_replayed,
    !checkpointed_replayed )

(* ------------------------------------------------------------------ *)
(* Part 4: restore time against the length of the history              *)
(* ------------------------------------------------------------------ *)

let restore_scaling () =
  print_endline
    "================================================================";
  print_endline " Restore scaling (one session at 10k and ~100k ops of history)";
  print_endline
    "================================================================";
  let dir = temp_dir "scaling" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = steady_config dir in
  let next = steady_ops () in
  (* the best of five restores, and the ops the restore replayed *)
  let restore () =
    let best = ref infinity and replayed = ref 0 in
    for _ = 1 to 5 do
      let metrics = Rrs_obs.Metrics.create () in
      let h = Server.host { config with metrics = Some metrics } in
      let t0 = Unix.gettimeofday () in
      let s = Server.open_session h Server.default_session in
      best := min !best (Unix.gettimeofday () -. t0);
      replayed :=
        Rrs_obs.Metrics.value
          (Rrs_obs.Metrics.counter metrics "serve_restore_replayed_ops");
      Server.abandon_session h s
    done;
    (!best, !replayed)
  in
  (* both points lie 16 ops past a checkpoint (every 256 ops), so only
     the history's length differs between them *)
  let grow ~ops =
    let h = Server.host config in
    let s = Server.open_session h Server.default_session in
    run_to h s next ~ops;
    Server.abandon_session h s;
    restore ()
  in
  let small_ops = 10_000 and large_ops = 99_856 in
  let t_small, r_small = grow ~ops:small_ops in
  let t_large, r_large = grow ~ops:large_ops in
  let growth = t_large /. t_small in
  Printf.printf "restore at %d ops: %.2f ms (%d replayed)\n" small_ops
    (t_small *. 1e3) r_small;
  Printf.printf "restore at %d ops: %.2f ms (%d replayed)\n" large_ops
    (t_large *. 1e3) r_large;
  Printf.printf "growth: %.2fx for %.1fx the history\n" growth
    (float_of_int large_ops /. float_of_int small_ops);
  List.iter
    (fun r ->
      if r > config.checkpoint_every then
        fail "a restore replayed %d ops, more than --checkpoint-every %d" r
          config.checkpoint_every)
    [ r_small; r_large ];
  (t_small, t_large, growth, r_small, r_large, small_ops, large_ops)

(* ------------------------------------------------------------------ *)

let () =
  let t0 = Unix.gettimeofday () in
  let rps, live_growth_per_round, minor_per_round = throughput () in
  let append_seconds, checkpoint_seconds, checkpoint_bytes = durability () in
  let divergences, restore_seconds, families, rounds_replayed, ckpt_replayed =
    restore_drill ()
  in
  let t_small, t_large, growth, r_small, r_large, small_ops, large_ops =
    restore_scaling ()
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
               ("checkpoint_bytes", float_of_int checkpoint_bytes);
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
               ("checkpointed_replayed_ops", float_of_int ckpt_replayed);
             ]
           ());
      write
        (Rrs_obs.Run_summary.make ~id:"serve-restore-scaling" ~kind:"bench"
           ~config:
             [
               ("policy", "dlru-edf");
               ("colors", string_of_int !colors);
               ("checkpoint_every", "256");
               ("ops", Printf.sprintf "%d,%d" small_ops large_ops);
             ]
           ~analysis:
             [
               ("restore_small_seconds", t_small);
               ("restore_large_seconds", t_large);
               ("restore_growth", growth);
               ("restore_small_replayed_ops", float_of_int r_small);
               ("restore_large_replayed_ops", float_of_int r_large);
             ]
           ()));
  (match Rrs_obs.Run_summary.load !out with
  | Ok summaries when List.length summaries = 4 -> ()
  | Ok summaries ->
      fail "%s holds %d summaries, expected 4" !out (List.length summaries)
  | Error msg -> fail "%s unreadable: %s" !out msg);
  Printf.printf "bench finished in %.1f s\n" (Unix.gettimeofday () -. t0);
  Printf.printf "run summaries written to %s\n" !out;
  match List.rev !failures with
  | [] -> print_endline "serve bench: all acceptance checks passed"
  | msgs ->
      List.iter (fun m -> Printf.eprintf "FAIL: %s\n" m) msgs;
      exit 1
