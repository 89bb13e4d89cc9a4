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
   The times are Info under the gate, recorded so drifts show up in
   review even though they never fail CI on machine noise.  The minor
   words one journaled op's commit allocates (journal line, counters,
   ack) and one checkpoint allocates are deterministic and gated
   ("alloc_commit_words_per_op", "alloc_checkpoint_words",
   analysis.alloc_* rule).

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

   Part 4 — restore scaling: one session under the steady load, at the
   server's default checkpoint cadence, restored at ~10k and at ~100k
   ops of history (both 16 ops past a checkpoint, the points found by
   reading the checkpoint the run left), the two restored in turns,
   best of 25 each.  The ops each restore replayed are Exact-gated, and
   the bench fails if one replayed --checkpoint-every units of replay
   work or more: that is the bound on restart work.  A restore reads
   the checkpoint and the journal segment that starts at it, so
   "restore_growth", the ratio of the two restore times within this
   process, must stay at most 1.5 (a replay of the whole history makes
   it ~10, and a read and hash of the journal below the checkpoint, as
   before segments, 3-4.5).  The bytes the session keeps on disk after
   the longer run are "session_disk_bytes" (Exact), and the bench fails
   if they exceed two checkpoint intervals of journal, each at most
   --checkpoint-every + 1 ops of the longest line on disk, plus two
   checkpoints: the journal is cut into segments at each checkpoint and
   the segments before the previous checkpoint are removed.  A session
   fed 32 rounds ahead and then stepped through them in one [step 64]
   is restored too: the step costs more replay work than a checkpoint
   interval, so it is checkpointed right after it and the restore
   replays no op ("heavy_step_replayed_ops", Exact).  So does a session
   left for another one with more replay work since its last checkpoint
   than it has colors ("left_session_replayed_ops", Exact).  Last, 32
   finished sessions of perfbench's [bursty] shape, each left by its
   connection, are restored by a fresh host: each restore opens its
   checkpoint and that checkpoint's segment, once each
   ("multi_restore_files_read", 2 per session, Exact), and allocates
   "alloc_multi_restore_words_per_session" words, minor and direct
   major (gated); "multi_restore_session_us" is Info.  A 1024-color
   [zipf] session is restored too: "alloc_zipf_restore_words" (minor
   and direct major) and "alloc_zipf_restore_major_words" (gated).

   Part 5 — deadline overhead: the 691-command script
   [rrs serve --emit-script -f bursty -s 1] writes, less its [quit],
   through [Server.exec] on an ephemeral host, with [Server.apply_op]
   and with the deadline apply [rrs serve --deadline 5] uses, in
   alternating blocks.  "deadline_overhead", the ratio of the two
   median block times, is gated to stay under twice its baseline: a
   budget costs a clock read between a step's rounds, where a domain
   per command cost hundreds of times the bare path.  The same script
   on a host whose heartbeat beats every round, against one without,
   gives "heartbeat_overhead", gated the same way: a beat rewrites
   [FILE.status] and [FILE.prom] through their [.prev]
   ({!Rrs_obs.File_commit.replace}), where a replacing rename per file
   measured 3-4 times the cost of the write. *)

open Rrs_core
module Families = Rrs_workload.Families
module Stream = Rrs_workload.Arrival_stream
module Journal = Rrs_service.Journal
module Snapshot = Rrs_service.Snapshot
module Server = Rrs_service.Server
module Protocol = Rrs_service.Protocol
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

(* Minor words one journaled op's commit allocates: a [Server.exec] of
   a [submit] or a [step] on a durable session (journal append, counters
   and ack), less what the engine's apply allocates inside it.  No
   checkpoint falls inside the measured ops.  Deterministic, so the
   gate can hold it to a narrow band. *)
type words = { mutable apply : float }

let commit_words dir =
  let h = Server.host { (steady_config dir) with checkpoint_every = 0 } in
  let s = Server.open_session h Server.default_session in
  let spent = { apply = 0. } in
  let apply s op =
    let w0 = Gc.minor_words () in
    let r = Server.apply_op s op in
    spent.apply <- spent.apply +. (Gc.minor_words () -. w0);
    r
  in
  let cmds =
    Array.init 4_000 (fun i ->
        if i mod 2 = 0 then
          Protocol.Submit { round = None; color = i mod !colors; count = 2 }
        else Protocol.Step 1)
  in
  let exec cmd =
    match Server.exec ~apply h s cmd with
    | Server.Reply [ l ] when String.starts_with ~prefix:"ok " l -> ()
    | _ -> failwith "commit words: a command was refused"
  in
  (* the first ops grow the reused buffers to their working size *)
  Array.iter exec (Array.sub cmds 0 64);
  spent.apply <- 0.;
  let w0 = Gc.minor_words () in
  Array.iter exec cmds;
  let words = Gc.minor_words () -. w0 -. spent.apply in
  Server.abandon_session h s;
  words /. float_of_int (Array.length cmds)

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
      Journal.policy = "dlru-edf";
      n = !n;
      delta = 4;
      delay = Array.make !colors 16;
      mini_rounds = 1;
    }
  in
  let w = Journal.create dir header in
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
  (* the first checkpoint grows the reused buffer to its working size *)
  ignore (Server.checkpoint_session h s);
  let w0 = Gc.minor_words () in
  let t0 = Unix.gettimeofday () in
  for _ = 1 to checkpoints do
    ignore (Server.checkpoint_session h s)
  done;
  let checkpoint_seconds =
    (Unix.gettimeofday () -. t0) /. float_of_int checkpoints
  in
  let checkpoint_words = (Gc.minor_words () -. w0) /. float_of_int checkpoints in
  let checkpoint_bytes =
    (Unix.stat (Filename.concat cdir "checkpoint.json")).Unix.st_size
  in
  Server.abandon_session h s;
  let commit_words = commit_words (Filename.concat dir "commit") in
  Printf.printf "journal append:    %.2f us/op\n" (append_seconds *. 1e6);
  Printf.printf "checkpoint commit: %.2f us (%d-color state, %d bytes)\n"
    (checkpoint_seconds *. 1e6) !colors checkpoint_bytes;
  Printf.printf "commit allocation: %.1f minor words/op\n" commit_words;
  Printf.printf "checkpoint allocation: %.1f minor words/checkpoint\n"
    checkpoint_words;
  ( append_seconds,
    checkpoint_seconds,
    checkpoint_bytes,
    commit_words,
    checkpoint_words )

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

(* The ops of the last checkpoint in [dir]. *)
let checkpointed_ops dir =
  match
    In_channel.with_open_bin (Filename.concat dir "checkpoint.json")
      In_channel.input_line
  with
  | exception Sys_error _ | None -> 0
  | Some line -> (
      match Rrs_torture.Torture.snapshot_of_line line with
      | Ok s -> s.Snapshot.ops
      | Error e -> failwith ("unreadable checkpoint: " ^ e))

(* The best of five restores of [config]'s directory, and the ops and
   the units of replay work the restore replayed. *)
let restore config =
  let best = ref infinity and replayed = ref 0 and work = ref 0 in
  for _ = 1 to 5 do
    let metrics = Rrs_obs.Metrics.create () in
    let h = Server.host { config with Server.metrics = Some metrics } in
    let t0 = Unix.gettimeofday () in
    let s = Server.open_session h Server.default_session in
    best := min !best (Unix.gettimeofday () -. t0);
    let counter name =
      Rrs_obs.Metrics.value (Rrs_obs.Metrics.counter metrics name)
    in
    replayed := counter "serve_restore_replayed_ops";
    work := counter "serve_restore_replayed_work";
    Server.abandon_session h s
  done;
  if !work >= config.checkpoint_every then
    fail "a restore replayed %d units of work, not less than --checkpoint-every %d"
      !work config.checkpoint_every;
  (!best, !replayed)

(* 32 rounds of load fed ahead, 48 jobs of one color each, then one
   [step 64] that executes or drops all of them: a restore replays no
   op. *)
let heavy_step () =
  let dir = temp_dir "heavy" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = steady_config dir in
  let h = Server.host config in
  let s = Server.open_session h Server.default_session in
  let ops =
    List.init 32 (fun round ->
        Journal.Submit { round; color = round mod !colors; count = 48 })
    @ [ Journal.Step 64 ]
  in
  List.iter
    (fun op ->
      match Server.apply_op s op with
      | Ok () -> Server.commit h s op
      | Error e -> failwith ("heavy step refused: " ^ e))
    ops;
  Server.abandon_session h s;
  let _, replayed = restore config in
  Printf.printf "restore after a loaded step 64: %d ops replayed\n" replayed;
  if replayed <> 0 then fail "a restore replayed %d ops after a loaded step" replayed;
  replayed

(* 48 ops of the steady load, well past the session's 64 colors in
   replay work and short of a checkpoint interval, then an [open] of
   another session: the session left is checkpointed, so a restore
   replays no op. *)
let left_session () =
  let dir = temp_dir "left" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = steady_config dir in
  let h = Server.host config in
  let s = Server.open_session h Server.default_session in
  run_to h s (steady_ops ()) ~ops:48;
  if checkpointed_ops dir <> 0 then fail "the left session was checkpointed before it was left";
  (match Server.exec h s (Protocol.Open "other") with
  | Server.Switch (other, _) -> Server.abandon_session h other
  | _ -> failwith "open other: no switch");
  Server.abandon_session h s;
  let _, replayed = restore config in
  Printf.printf "restore of a left session: %d ops replayed\n" replayed;
  if replayed <> 0 then fail "a restore of a left session replayed %d ops" replayed;
  replayed

(* The bytes the session in [dir] keeps on disk; the bench fails if
   they exceed two checkpoint intervals of journal, each at most
   [checkpoint_every + 1] ops of the longest line on disk plus a
   segment header, and two checkpoints. *)
let disk_bound dir (config : Server.config) =
  let files = Array.to_list (Sys.readdir dir) in
  let size f = (Unix.stat (Filename.concat dir f)).Unix.st_size in
  let segments = List.filter (fun f -> Journal.segment_of_name f <> None) files in
  let lines =
    List.concat_map
      (fun f -> In_channel.with_open_bin (Filename.concat dir f) In_channel.input_lines)
      segments
  in
  let longest = 1 + List.fold_left (fun m l -> max m (String.length l)) 0 lines in
  let checkpoint =
    List.fold_left max 0
      (List.map size (List.filter (String.starts_with ~prefix:"checkpoint.json") files))
  in
  let bound = (2 * (((config.checkpoint_every + 1) * longest) + longest)) + (2 * checkpoint) in
  let disk = List.fold_left (fun a f -> a + size f) 0 files in
  Printf.printf
    "on disk after the longer run: %d bytes in %d files (%d segments; bound %d)\n"
    disk (List.length files) (List.length segments) bound;
  if disk > bound then
    fail "the session keeps %d bytes on disk, more than two checkpoint \
          intervals of journal and two checkpoints (%d)" disk bound;
  disk

(* [f ()], the minor words it allocated and the words it allocated
   straight on the major heap (major less promoted), which
   [Gc.minor_words] does not see: blocks over 256 words, such as a
   1024-color section array, are made there.  The minor words come
   from [Gc.minor_words]: [Gc.counters]'s leave out the minor heap's
   current fill.  [Gc.counters] is read at the two boundaries only:
   under OCaml 5.1.1 its floats can be left dangling if many are kept
   (perfbench/README.md). *)
let allocated f =
  Gc.full_major ();
  let _, promoted0, major0 = Gc.counters () in
  let minor0 = Gc.minor_words () in
  let x = f () in
  let minor = Gc.minor_words () -. minor0 in
  let _, promoted1, major1 = Gc.counters () in
  (x, minor, major1 -. major0 -. (promoted1 -. promoted0))

(* 32 finished sessions shaped like perfbench's [bursty] workload: the
   bursty family at its registry size (12 colors), n = 8, the server's
   default cadence, each played round by round ([submit]s, then [step
   1]) over one host's [Server.exec] and left for the next, so each is
   checkpointed as its connection leaves it.  A fresh host restores all
   32; the best of [repeats] times, and the words (minor and direct
   major) and files the last restore took, per session.  A restore from
   a verified checkpoint reads that checkpoint and the segment that
   starts at it, each once: 2 files per session (Exact). *)
let multi_session_restore () =
  let sessions = 32 in
  let dir = temp_dir "multi" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let family = Option.get (Families.find "bursty") in
  let instance seed = family.build ~seed in
  let first = instance 1 in
  let config =
    {
      Server.default_config with
      n = 8;
      delta = first.Instance.delta;
      delay = Array.copy first.Instance.delay;
      checkpoint_dir = Some dir;
    }
  in
  let names = List.init sessions (Printf.sprintf "s%02d") in
  let h = Server.host config in
  let exec cur cmd =
    match Server.exec h cur cmd with
    | Server.Reply [ l ] when String.starts_with ~prefix:"ok " l -> cur
    | Server.Switch (s, _) -> s
    | _ -> failwith ("multi-session restore: refused " ^ Protocol.command_to_string cmd)
  in
  let cur = ref (Server.open_session h Server.default_session) in
  List.iteri
    (fun i name ->
      cur := exec !cur (Protocol.Open name);
      let stream = Stream.of_instance (instance (i + 1)) in
      let rec play () =
        match Stream.next stream with
        | None -> ()
        | Some (round, batch) ->
            List.iter
              (fun (color, count) ->
                cur := exec !cur (Protocol.Submit { round = Some round; color; count }))
              batch;
            cur := exec !cur (Protocol.Step 1);
            play ()
      in
      play ())
    names;
  cur := exec !cur (Protocol.Open Server.default_session);
  List.iter (Server.abandon_session h) (Server.sessions h);
  let best = ref infinity and words = ref 0. and files = ref 0 and replayed = ref 0 in
  for _ = 1 to max 5 !repeats do
    let metrics = Rrs_obs.Metrics.create () in
    let h = Server.host { config with metrics = Some metrics } in
    let t0 = Unix.gettimeofday () in
    let restored, minor, major =
      allocated (fun () -> List.map (Server.open_session h) names)
    in
    best := min !best (Unix.gettimeofday () -. t0);
    words := minor +. major;
    let counter name = Rrs_obs.Metrics.value (Rrs_obs.Metrics.counter metrics name) in
    files := counter "serve_restore_files_read";
    replayed := counter "serve_restore_replayed_ops";
    List.iter (Server.abandon_session h) restored
  done;
  let per_session x = x /. float_of_int sessions in
  let files = per_session (float_of_int !files) and words = per_session !words in
  let us = per_session (!best *. 1e6) in
  Printf.printf
    "restore of %d left bursty sessions: %.1f us, %.0f words, %.2f files read per \
     session (%d ops replayed)\n"
    sessions us words files !replayed;
  if files <> 2. then fail "a restore read %.2f files per session, not its checkpoint and segment" files;
  if !replayed <> 0 then fail "a restore of left sessions replayed %d ops" !replayed;
  (us, words, files)

(* One session shaped like perfbench's [zipf] workload: the zipf family
   scaled to 1024 colors, n = 64, its whole script in [step 64] chunks
   over one host's [Server.exec] at the server's default cadence, then
   checkpointed and dropped.  Fresh hosts restore it, each to the state
   it was dropped in: the minor and the direct major words
   the last restore allocated.  At 1024 colors a restore is mostly
   decoding the checkpoint's machine state, so the words count the
   staging a decoder makes besides the structures it fills. *)
let zipf_restore () =
  let instance =
    match Families.scale_to (Option.get (Families.find "zipf")) ~num_colors:1024 ~seed:3000 with
    | Ok i -> i
    | Error e -> failwith (Families.string_of_scale_error e)
  in
  let dir = temp_dir "zipf" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config =
    {
      Server.default_config with
      n = 64;
      delta = instance.Instance.delta;
      delay = Array.copy instance.Instance.delay;
      checkpoint_dir = Some dir;
    }
  in
  let script = Buffer.create 65_536 in
  Stream.to_script ~step_chunk:64 (Stream.of_instance instance) script;
  let h = Server.host config in
  let s = Server.open_session h Server.default_session in
  List.iter
    (fun line ->
      match Protocol.parse line with
      | Ok (Some Protocol.Quit) | Ok None -> ()
      | Ok (Some cmd) -> (
          match Server.exec h s cmd with
          | Server.Reply [ l ] when not (String.starts_with ~prefix:"err" l) -> ()
          | _ -> failwith ("zipf restore: refused " ^ line))
      | Error e -> failwith ("zipf script: " ^ e))
    (String.split_on_char '\n' (Buffer.contents script));
  ignore (Server.checkpoint_session h s);
  let before = Snapshot.to_line (Server.session_snapshot s) in
  Server.abandon_session h s;
  let minor = ref 0. and major = ref 0. in
  for _ = 1 to 5 do
    let h = Server.host config in
    let s, mi, ma = allocated (fun () -> Server.open_session h Server.default_session) in
    minor := mi;
    major := ma;
    if Snapshot.to_line (Server.session_snapshot s) <> before then
      fail "a zipf restore differs from the session it restores";
    Server.abandon_session h s
  done;
  Printf.printf
    "restore of a 1024-color zipf session: %.0f minor + %.0f direct major words\n"
    !minor !major;
  (!minor, !major)

let restore_scaling () =
  print_endline
    "================================================================";
  print_endline " Restore scaling (one session at ~10k and ~100k ops of history)";
  print_endline
    "================================================================";
  let dir = temp_dir "scaling" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let config = steady_config dir in
  let next = steady_ops () in
  (* from [ops] on to 16 ops past the next checkpoint, so that only the
     history's length differs between the two points *)
  let grow ~ops =
    let h = Server.host config in
    let s = Server.open_session h Server.default_session in
    run_to h s next ~ops;
    let last = checkpointed_ops dir in
    while checkpointed_ops dir = last do
      run_to h s next ~ops:(Server.session_ops s + 1)
    done;
    run_to h s next ~ops:(checkpointed_ops dir + 16);
    let ops = Server.session_ops s in
    Server.abandon_session h s;
    ops
  in
  (* the smaller history is kept aside, and the two are restored in
     turns, so that both see the same machine: sub-millisecond samples,
     best of 25 each *)
  let small_ops = grow ~ops:10_000 in
  let small_dir = temp_dir "scaling_small" in
  Fun.protect ~finally:(fun () -> rm_rf small_dir) @@ fun () ->
  Array.iter
    (fun f ->
      let contents = In_channel.with_open_bin (Filename.concat dir f) In_channel.input_all in
      Out_channel.with_open_bin (Filename.concat small_dir f) (fun oc ->
          Out_channel.output_string oc contents))
    (Sys.readdir dir);
  let large_ops = grow ~ops:99_856 in
  let small = { config with checkpoint_dir = Some small_dir } in
  let t_small = ref infinity and t_large = ref infinity in
  let r_small = ref 0 and r_large = ref 0 in
  for _ = 1 to 5 do
    let t, r = restore small in
    t_small := min !t_small t;
    r_small := r;
    let t, r = restore config in
    t_large := min !t_large t;
    r_large := r
  done;
  let t_small = !t_small and t_large = !t_large in
  let r_small = !r_small and r_large = !r_large in
  let growth = t_large /. t_small in
  if growth > 1.5 then
    fail "restore growth %.2fx from %d to %d ops of history, more than 1.5x"
      growth small_ops large_ops;
  Printf.printf "restore at %d ops: %.2f ms (%d replayed)\n" small_ops
    (t_small *. 1e3) r_small;
  Printf.printf "restore at %d ops: %.2f ms (%d replayed)\n" large_ops
    (t_large *. 1e3) r_large;
  Printf.printf "growth: %.2fx for %.1fx the history\n" growth
    (float_of_int large_ops /. float_of_int small_ops);
  let disk = disk_bound dir config in
  let heavy = heavy_step () in
  let left = left_session () in
  let multi = multi_session_restore () in
  let zipf = zipf_restore () in
  (t_small, t_large, growth, r_small, r_large, small_ops, large_ops, heavy, left, disk, multi, zipf)

(* ------------------------------------------------------------------ *)
(* Part 5: deadline and heartbeat overhead                              *)
(* ------------------------------------------------------------------ *)

(* The 691-command bursty script less its [quit], and a host config
   for it. *)
let bursty_script () =
  let instance = (Option.get (Families.find "bursty")).build ~seed:1 in
  let script = Buffer.create 16_384 in
  Stream.to_script (Stream.of_instance instance) script;
  let cmds =
    String.split_on_char '\n' (Buffer.contents script)
    |> List.filter_map (fun line ->
           match Protocol.parse line with
           | Ok (Some Protocol.Quit) | Ok None -> None
           | Ok (Some cmd) -> Some cmd
           | Error e -> failwith ("bursty script: " ^ e))
    |> Array.of_list
  in
  let config =
    {
      Server.default_config with
      n = 8;
      delta = instance.Instance.delta;
      delay = Array.copy instance.Instance.delay;
    }
  in
  (cmds, config)

(* The script through [Server.exec] on a fresh host of [config] per
   block, [base] and [arm] in alternating blocks (either goes first in
   turn); the median block times, microseconds. *)
let alternate cmds ~blocks base arm =
  let block (config, apply) =
    let h = Server.host config in
    let s = Server.open_session h Server.default_session in
    let t0 = Unix.gettimeofday () in
    Array.iter
      (fun cmd ->
        match Server.exec ~apply h s cmd with
        | Server.Reply [ l ] when not (String.starts_with ~prefix:"err" l) -> ()
        | _ -> failwith "bursty script: a command was refused")
      cmds;
    let t = Unix.gettimeofday () -. t0 in
    Server.abandon_session h s;
    t
  in
  let t_base = Array.make blocks 0. and t_arm = Array.make blocks 0. in
  ignore (block base, block arm);
  for i = 0 to blocks - 1 do
    if i mod 2 = 0 then t_base.(i) <- block base;
    t_arm.(i) <- block arm;
    if i mod 2 = 1 then t_base.(i) <- block base
  done;
  let median a =
    Array.sort Float.compare a;
    a.(Array.length a / 2) *. 1e6
  in
  (median t_base, median t_arm)

let overhead_banner what =
  print_endline
    "================================================================";
  Printf.printf " %s overhead (the bursty script)\n" what;
  print_endline
    "================================================================"

let deadline_overhead () =
  overhead_banner "Deadline";
  let cmds, config = bursty_script () in
  let blocks = 41 in
  let bare_us, budget_us =
    alternate cmds ~blocks
      (config, Server.apply_op)
      (config, Server.apply_within 5.0)
  in
  let ratio = budget_us /. bare_us in
  Printf.printf
    "%d commands: %.0f us bare, %.0f us with --deadline 5 (median of %d \
     blocks): overhead %.3fx\n"
    (Array.length cmds) bare_us budget_us blocks ratio;
  (ratio, bare_us, budget_us)

(* A heartbeat beating every round, as [rrs serve --heartbeat FILE
   --heartbeat-every 1] has it: its stream, [FILE.status] and
   [FILE.prom] rewritten per beat. *)
let heartbeat_overhead () =
  overhead_banner "Heartbeat";
  let cmds, config = bursty_script () in
  let dir = temp_dir "heartbeat" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path = Filename.concat dir "hb.jsonl" in
  let metrics = Rrs_obs.Metrics.create () in
  let hb =
    Rrs_obs.Heartbeat.create ~every_rounds:1 ~path
      ~status_path:(path ^ ".status") ~registry:metrics
      ~expose_path:(path ^ ".prom")
      ~extra:(fun () ->
        List.map
          (fun (name, v) -> (name, Rrs_obs.Json.Int v))
          (Rrs_obs.Metrics.counters metrics))
      ()
  in
  let blocks = 11 in
  let bare_us, beating_us =
    alternate cmds ~blocks
      (config, Server.apply_op)
      ( { config with heartbeat = Some hb; metrics = Some metrics },
        Server.apply_op )
  in
  Rrs_obs.Heartbeat.finish hb;
  let ratio = beating_us /. bare_us in
  Printf.printf
    "%d commands: %.0f us bare, %.0f us beating every round (median of %d \
     blocks): overhead %.3fx\n"
    (Array.length cmds) bare_us beating_us blocks ratio;
  (ratio, bare_us, beating_us)

(* ------------------------------------------------------------------ *)

let () =
  let t0 = Unix.gettimeofday () in
  let rps, live_growth_per_round, minor_per_round = throughput () in
  let ( append_seconds,
        checkpoint_seconds,
        checkpoint_bytes,
        commit_words,
        checkpoint_words ) =
    durability ()
  in
  let divergences, restore_seconds, families, rounds_replayed, ckpt_replayed =
    restore_drill ()
  in
  let ( t_small,
        t_large,
        growth,
        r_small,
        r_large,
        small_ops,
        large_ops,
        heavy,
        left,
        disk,
        (multi_us, multi_words, multi_files),
        (zipf_minor, zipf_major) ) =
    restore_scaling ()
  in
  let deadline_ratio, deadline_bare_us, deadline_budget_us =
    deadline_overhead ()
  in
  let heartbeat_ratio, heartbeat_bare_us, heartbeat_us =
    heartbeat_overhead ()
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
               ("alloc_commit_words_per_op", commit_words);
               ("alloc_checkpoint_words", checkpoint_words);
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
               ( "checkpoint_every",
                 string_of_int (steady_config "").checkpoint_every );
               ("ops", Printf.sprintf "%d,%d" small_ops large_ops);
             ]
           ~analysis:
             [
               ("restore_small_seconds", t_small);
               ("restore_large_seconds", t_large);
               ("restore_growth", growth);
               ("restore_small_replayed_ops", float_of_int r_small);
               ("restore_large_replayed_ops", float_of_int r_large);
               ("heavy_step_replayed_ops", float_of_int heavy);
               ("left_session_replayed_ops", float_of_int left);
               ("session_disk_bytes", float_of_int disk);
               ("multi_restore_files_read", multi_files);
               ("alloc_multi_restore_words_per_session", multi_words);
               ("multi_restore_session_us", multi_us);
               ("alloc_zipf_restore_words", zipf_minor +. zipf_major);
               ("alloc_zipf_restore_major_words", zipf_major);
             ]
           ());
      write
        (Rrs_obs.Run_summary.make ~id:"serve-deadline" ~kind:"bench"
           ~config:[ ("family", "bursty"); ("deadline", "5") ]
           ~analysis:
             [
               ("deadline_overhead", deadline_ratio);
               ("deadline_bare_script_us", deadline_bare_us);
               ("deadline_script_us", deadline_budget_us);
             ]
           ());
      write
        (Rrs_obs.Run_summary.make ~id:"serve-heartbeat" ~kind:"bench"
           ~config:[ ("family", "bursty"); ("heartbeat_every", "1") ]
           ~analysis:
             [
               ("heartbeat_overhead", heartbeat_ratio);
               ("heartbeat_bare_script_us", heartbeat_bare_us);
               ("heartbeat_script_us", heartbeat_us);
             ]
           ()));
  (match Rrs_obs.Run_summary.load !out with
  | Ok summaries when List.length summaries = 6 -> ()
  | Ok summaries ->
      fail "%s holds %d summaries, expected 6" !out (List.length summaries)
  | Error msg -> fail "%s unreadable: %s" !out msg);
  Printf.printf "bench finished in %.1f s\n" (Unix.gettimeofday () -. t0);
  Printf.printf "run summaries written to %s\n" !out;
  match List.rev !failures with
  | [] -> print_endline "serve bench: all acceptance checks passed"
  | msgs ->
      List.iter (fun m -> Printf.eprintf "FAIL: %s\n" m) msgs;
      exit 1
