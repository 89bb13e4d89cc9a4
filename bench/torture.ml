(* The crash-consistency torture campaign.

   Part 1 mutates durable state offline through Rrs_torture.Torture:
   each journal segment truncated at every byte boundary, a byte
   flipped at every offset, every line duplicated, every op line
   rewritten with another value (still a valid op) and swapped with
   the next, the segments' edges cut and flipped, each segment removed
   and an extra one added, a kill at each step of a rotating
   checkpoint commit, and checkpoint.json truncated and flipped — every
   case must be contained (recovered on the documented tier or refused
   with a diagnostic) and divergence-free (a successful restore equals
   the straight line of the acked ops it holds).

   Part 2 drills kills end to end over the socket: for every op k a
   child process (this executable re-exec'd with --child-serve) serves
   a Unix-domain socket with --crash-after k semantics; the parent
   streams the op script, counts acks until the connection dies, then
   restores the directory and requires every acked op to have survived
   into the journal.

   Part 3 is the overload drill: concurrent clients (one killed
   mid-stream, one slow reader) hammer one shared session under tight
   queue bounds; busy/shed/slow-drop counters must move, the loop must
   survive, and after shutdown the journal must hold at least every
   acked op and restore cleanly.

   Part 4 times recovery: cold restore of a long journal, and the same
   with a torn tail.

   Everything lands in BENCH_torture.json as run_summary lines; the
   campaign records carry Exact-gated cases/contained/uncontained/
   divergences counts.  Exit status is nonzero if any acceptance check
   fails. *)

module Torture = Rrs_torture.Torture
module Server = Rrs_service.Server
module Transport = Rrs_service.Transport
module Journal = Rrs_service.Journal
module Snapshot = Rrs_service.Snapshot

let failures : string list ref = ref []
let fail fmt = Printf.ksprintf (fun msg -> failures := msg :: !failures) fmt

let config =
  {
    Server.default_config with
    n = 4;
    delta = 2;
    delay = Array.make 4 6;
    checkpoint_every = 8;
  }

let colors = 4
let seed = 7

let scratch =
  Filename.concat (Filename.get_temp_dir_name ())
    (Printf.sprintf "rrs_torture_%d" (Unix.getpid ()))

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let fresh_dir name =
  let dir = Filename.concat scratch name in
  rm_rf dir;
  let rec mk d =
    if d <> "/" && d <> "." && not (Sys.file_exists d) then begin
      mk (Filename.dirname d);
      try Unix.mkdir d 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  mk dir;
  dir

let is_mutation_ack line =
  let prefixes = [ "ok submitted"; "ok stepped"; "ok reconfigured" ] in
  List.exists
    (fun p ->
      String.length line >= String.length p
      && String.sub line 0 (String.length p) = p)
    prefixes

(* ------------------------------------------------------------------ *)
(* part 1: offline mutation campaigns                                  *)
(* ------------------------------------------------------------------ *)

let report_campaign name verdicts =
  let s = Torture.summarize verdicts in
  List.iter
    (fun (v : Torture.verdict) ->
      if not v.contained then
        fail "%s: %s uncontained: %s" name v.case v.detail
      else if v.diverged then fail "%s: %s diverged: %s" name v.case v.detail)
    verdicts;
  Printf.printf
    "%-20s %4d cases: %d contained, %d diverged (tiers %d/%d/%d/%d)\n%!" name
    s.cases s.contained s.divergences s.tiers.(0) s.tiers.(1) s.tiers.(2)
    s.tiers.(3);
  s

let offline_campaigns () =
  let ops = Torture.ops_of_seed ~colors seed in
  let run name campaign =
    report_campaign name (campaign config ~ops ~dir:(fresh_dir name))
  in
  let truncate = run "journal-truncate" (Torture.journal_truncate_campaign ?stride:None) in
  let flip = run "journal-flip" (Torture.journal_flip_campaign ?stride:None) in
  let dup = run "journal-dup" Torture.journal_dup_campaign in
  let edit = run "journal-edit" Torture.journal_edit_campaign in
  let reorder = run "journal-reorder" Torture.journal_reorder_campaign in
  let boundary = run "segment-boundary" Torture.segment_boundary_campaign in
  let presence = run "segment-presence" Torture.segment_presence_campaign in
  let rotation = run "kill-rotation" Torture.kill_rotation_campaign in
  let ckpt = run "checkpoint" (Torture.checkpoint_campaign ?stride:None) in
  let prefixes = run "kill-prefix" (Torture.prefix_campaign ~torn:false) in
  let torn = run "kill-prefix-torn" (Torture.prefix_campaign ~torn:true) in
  [
    ("journal-truncate", truncate);
    ("journal-flip", flip);
    ("journal-dup", dup);
    ("journal-edit", edit);
    ("journal-reorder", reorder);
    ("segment-boundary", boundary);
    ("segment-presence", presence);
    ("kill-rotation", rotation);
    ("checkpoint-torture", ckpt);
    ("kill-prefix", prefixes);
    ("kill-prefix-torn", torn);
  ]

(* ------------------------------------------------------------------ *)
(* part 2: kill-at-every-op over the socket                            *)
(* ------------------------------------------------------------------ *)

let child_serve sock dir crash_after =
  let config =
    {
      config with
      Server.checkpoint_dir = Some dir;
      crash_after = Some crash_after;
    }
  in
  match Transport.run config (Transport.Unix_socket sock) with
  | Ok _ -> exit 0
  | Error (`Config e | `Fatal e) ->
      prerr_endline ("child-serve: " ^ e);
      exit 1

let connect_retry path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec go n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> fd
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
        Unix.sleepf 0.02;
        go (n - 1)
  in
  go 250

let kill_drill ops k =
  let dir = fresh_dir (Printf.sprintf "kill-%d" k) in
  let sock = Filename.concat dir "drill.sock" in
  let state = Filename.concat dir "state" in
  Unix.mkdir state 0o755;
  let pid =
    Unix.create_process Sys.executable_name
      [| Sys.executable_name; "--child-serve"; sock; state; string_of_int k |]
      Unix.stdin Unix.stdout Unix.stderr
  in
  let acked = ref 0 in
  let verdict =
    match connect_retry sock with
    | exception _ ->
        ignore (Unix.waitpid [] pid);
        Torture.
          {
            case = Printf.sprintf "socket-kill@%d" k;
            tier = 0;
            contained = false;
            diverged = false;
            restored_ops = 0;
            detail = "could not connect";
          }
    | fd ->
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        (match In_channel.input_line ic with
        | Some _greeting -> ()
        | None -> ());
        (try
           List.iter
             (fun op ->
               output_string oc (Journal.op_to_line op);
               output_char oc '\n';
               flush oc;
               match In_channel.input_line ic with
               | Some line when is_mutation_ack line -> incr acked
               | Some _ -> ()
               | None -> raise Exit)
             ops
         with Exit | Sys_error _ -> ());
        (try Unix.close fd with Unix.Unix_error _ -> ());
        let _, status = Unix.waitpid [] pid in
        (match status with
        | Unix.WEXITED 70 -> ()
        | Unix.WEXITED c -> fail "socket-kill@%d: child exited %d, want 70" k c
        | _ -> fail "socket-kill@%d: child died abnormally" k);
        let v =
          Torture.restore_case
            ~case:(Printf.sprintf "socket-kill@%d" k)
            ~ops config state
        in
        (* ack-after-log: every acked op must have survived the kill *)
        let journaled = v.Torture.restored_ops in
        if not v.Torture.contained then ()
        else if journaled < !acked then
          fail "socket-kill@%d: %d acked but only %d journaled" k !acked journaled
        else if journaled <> k then
          fail "socket-kill@%d: journal holds %d ops, want exactly %d" k
            journaled k;
        v
  in
  rm_rf dir;
  verdict

let socket_kill_campaign () =
  let ops = Torture.ops_of_seed ~colors seed in
  let n = List.length ops in
  let verdicts = List.init n (fun i -> kill_drill ops (i + 1)) in
  report_campaign "socket-kill" verdicts

(* ------------------------------------------------------------------ *)
(* part 3: overload drill                                              *)
(* ------------------------------------------------------------------ *)

let overload_drill () =
  let dir = fresh_dir "overload" in
  let sock = Filename.concat dir "overload.sock" in
  let state = Filename.concat dir "state" in
  Unix.mkdir state 0o755;
  let limits =
    {
      Transport.default_limits with
      queue_limit = 4;
      (* below queue_limit: every client here shares one session, so
         the total backlog is bounded by the per-session admission
         limit and shedding only engages underneath it *)
      shed_threshold = 2;
      write_stall_timeout = 0.3;
      write_buffer_limit = 1 lsl 14;
    }
  in
  let stop = Atomic.make false in
  let server =
    Domain.spawn (fun () ->
        Transport.run ~limits
          ~stop:(fun () -> Atomic.get stop)
          { config with Server.checkpoint_dir = Some state }
          (Transport.Unix_socket sock))
  in
  let total_acked = Atomic.make 0 in
  let total_busy = Atomic.make 0 in
  let uncontained = ref 0 in
  let hammer ~bursty id =
    match connect_retry sock with
    | exception e ->
        incr uncontained;
        fail "overload client %d: connect: %s" id (Printexc.to_string e)
    | fd ->
        let ic = Unix.in_channel_of_descr fd in
        let oc = Unix.out_channel_of_descr fd in
        ignore (In_channel.input_line ic);
        let pending = ref 0 in
        let drain_one () =
          match In_channel.input_line ic with
          | Some line ->
              decr pending;
              if is_mutation_ack line then Atomic.incr total_acked
              else if String.length line >= 4 && String.sub line 0 4 = "busy"
              then Atomic.incr total_busy
          | None -> raise Exit
        in
        (try
           for i = 1 to 40 do
             output_string oc
               (Printf.sprintf "submit %d 1\n" (((id * 40) + i) mod colors));
             flush oc;
             incr pending;
             (* bursty clients pipeline 8 deep to trip admission
                control; smooth ones stay in lockstep *)
             if (not bursty) || !pending >= 8 then drain_one ();
             if i mod 10 = 0 then begin
               output_string oc "state\n";
               flush oc;
               incr pending;
               drain_one ()
             end
           done;
           while !pending > 0 do
             drain_one ()
           done;
           output_string oc "quit\n";
           flush oc;
           ignore (In_channel.input_line ic)
         with
        | Exit -> ()
        | e ->
            incr uncontained;
            fail "overload client %d: %s" id (Printexc.to_string e));
        try Unix.close fd with Unix.Unix_error _ -> ()
  in
  let clients =
    [
      Domain.spawn (fun () -> hammer ~bursty:false 1);
      Domain.spawn (fun () -> hammer ~bursty:true 2);
      Domain.spawn (fun () -> hammer ~bursty:true 3);
    ]
  in
  (* the rude client: submit, vanish without reading a byte *)
  (match connect_retry sock with
  | fd ->
      let oc = Unix.out_channel_of_descr fd in
      output_string oc "submit 0 1 2\nsubmit 0 2 1\n";
      (try flush oc with Sys_error _ -> ());
      Unix.close fd
  | exception e -> fail "rude client: %s" (Printexc.to_string e));
  (* the slow reader: flood commands without reading a single reply.
     Most are refused at admission, but ~45 bytes of busy reply each
     still have to go somewhere: once the kernel socket buffer is full
     the server's per-conn write buffer hits its bound and the
     slow-client policy must drop the connection *)
  (match connect_retry sock with
  | fd ->
      let oc = Unix.out_channel_of_descr fd in
      (try
         for _ = 1 to 50_000 do
           output_string oc "state\n"
         done;
         flush oc;
         Unix.sleepf 0.5
       with Sys_error _ -> ());
      (try Unix.close fd with Unix.Unix_error _ -> ())
  | exception e -> fail "slow client: %s" (Printexc.to_string e));
  List.iter Domain.join clients;
  Atomic.set stop true;
  let stats =
    match Domain.join server with
    | Ok stats -> stats
    | Error (`Config e | `Fatal e) ->
        incr uncontained;
        fail "overload server: %s" e;
        {
          Transport.conns_accepted = 0;
          conns_dropped = 0;
          commands = 0;
          busy = 0;
          shed = 0;
          slow_drops = 0;
          wedges = 0;
          select_rounds = 0;
        }
  in
  (* the shutdown checkpointed the session: its restore must reproduce
     that checkpoint's state and hold every journaled op *)
  let restore = Torture.restore_case ~case:"overload-restore" config state in
  if not restore.Torture.contained then begin
    incr uncontained;
    fail "overload restore: %s" restore.Torture.detail
  end;
  let journaled = restore.Torture.restored_ops in
  (* ack-after-log under pressure: an acked op may never be dropped,
     though journaled-but-unacked ops are expected (killed clients) *)
  if journaled < Atomic.get total_acked then
    fail "overload: %d acked but only %d journaled" (Atomic.get total_acked)
      journaled;
  if stats.Transport.slow_drops < 1 then
    fail "overload: slow reader was never dropped (slow_drops=%d)"
      stats.Transport.slow_drops;
  Printf.printf
    "overload: %d acked / %d journaled; busy=%d shed=%d slow_drops=%d \
     dropped=%d conns=%d\n%!"
    (Atomic.get total_acked) journaled stats.Transport.busy
    stats.Transport.shed stats.Transport.slow_drops
    stats.Transport.conns_dropped stats.Transport.conns_accepted;
  rm_rf dir;
  (stats, Atomic.get total_acked, journaled, !uncontained, restore)

(* ------------------------------------------------------------------ *)
(* part 4: recovery timing                                             *)
(* ------------------------------------------------------------------ *)

let best_of n f =
  let best = ref infinity in
  for _ = 1 to n do
    let t0 = Unix.gettimeofday () in
    f ();
    best := min !best (Unix.gettimeofday () -. t0)
  done;
  !best

let recovery_timing () =
  let ops = Torture.ops_of_seed ~count:2000 ~colors 11 in
  let dir = fresh_dir "timing" in
  Torture.build_fixture config ops dir;
  let clean =
    best_of 3 (fun () ->
        let v = Torture.restore_case ~case:"timing" ~ops config dir in
        if not v.Torture.contained then fail "timing restore: %s" v.detail)
  in
  (* now tear the tail and measure the tier-1 path (which truncates
     the tear away — re-tear before each repetition) *)
  let jpath =
    let last = ref "" in
    Array.iter
      (fun f ->
        match Journal.segment_of_name f with
        | Some start
          when start >= Option.value ~default:(-1) (Journal.segment_of_name !last)
          ->
            last := f
        | _ -> ())
      (Sys.readdir dir);
    Filename.concat dir !last
  in
  let tear () =
    let oc =
      Out_channel.open_gen [ Open_append; Open_text ] 0o644 jpath
    in
    output_string oc "submit 19";
    Out_channel.close oc
  in
  let torn =
    best_of 3 (fun () ->
        tear ();
        let v = Torture.restore_case ~case:"timing-torn" ~ops config dir in
        if not (v.Torture.contained && v.Torture.tier = 1) then
          fail "timing torn restore: tier %d (%s)" v.Torture.tier v.detail)
  in
  rm_rf dir;
  Printf.printf "recovery: clean %.1f ms, torn tail %.1f ms (2000 ops)\n%!"
    (clean *. 1e3) (torn *. 1e3);
  (clean, torn)

(* ------------------------------------------------------------------ *)

let summary_analysis (s : Torture.summary) =
  [
    ("cases", float_of_int s.cases);
    ("contained", float_of_int s.contained);
    ("uncontained", float_of_int s.uncontained);
    ("divergences", float_of_int s.divergences);
    ("tier_clean", float_of_int s.tiers.(0));
    ("tier_torn_tail", float_of_int s.tiers.(1));
    ("tier_quarantine", float_of_int s.tiers.(2));
    ("tier_refused", float_of_int s.tiers.(3));
  ]

let () =
  (match Array.to_list Sys.argv with
  | _ :: "--child-serve" :: sock :: dir :: k :: _ ->
      child_serve sock dir (int_of_string k)
  | _ -> ());
  (* the parent writes to sockets whose far end dies on purpose *)
  ignore (Sys.signal Sys.sigpipe Sys.Signal_ignore);
  let t0 = Unix.gettimeofday () in
  rm_rf scratch;
  let offline = offline_campaigns () in
  let kills = socket_kill_campaign () in
  let stats, acked, journaled, overload_uncontained, overload_restore =
    overload_drill ()
  in
  let clean_seconds, torn_seconds = recovery_timing () in
  rm_rf scratch;
  Out_channel.with_open_text "BENCH_torture.json" (fun oc ->
      let write = Rrs_obs.Run_summary.write oc in
      let campaign id s =
        write
          (Rrs_obs.Run_summary.make ~id ~kind:"bench"
             ~config:
               [
                 ("seed", string_of_int seed);
                 ("checkpoint_every", string_of_int config.checkpoint_every);
               ]
             ~analysis:(summary_analysis s) ())
      in
      List.iter (fun (id, s) -> campaign id s) offline;
      campaign "socket-kill" kills;
      write
        (Rrs_obs.Run_summary.make ~id:"overload-drill" ~kind:"bench"
           ~config:
             [
               ("clients", "5");
               ("queue_limit", "4");
               ("shed_threshold", "6");
             ]
           ~analysis:
             [
               ("cases", 1.0);
               ("contained", if overload_restore.Torture.contained then 1.0 else 0.0);
               ("uncontained", float_of_int overload_uncontained);
               ("divergences", if journaled >= acked then 0.0 else 1.0);
               ("acked", float_of_int acked);
               ("journaled", float_of_int journaled);
               ("busy", float_of_int stats.Transport.busy);
               ("shed", float_of_int stats.Transport.shed);
               ("slow_drops", float_of_int stats.Transport.slow_drops);
               ( "shed_rate",
                 if stats.Transport.commands = 0 then 0.0
                 else
                   float_of_int stats.Transport.shed
                   /. float_of_int stats.Transport.commands );
             ]
           ());
      write
        (Rrs_obs.Run_summary.make ~id:"torture-recovery" ~kind:"bench"
           ~config:[ ("ops", "2000") ]
           ~analysis:
             [
               ("restore_seconds", clean_seconds);
               ("restore_torn_seconds", torn_seconds);
             ]
           ~timings:
             [
               {
                 Rrs_obs.Run_summary.phase = "restore";
                 seconds = clean_seconds;
                 count = 3;
               };
             ]
           ()));
  (match Rrs_obs.Run_summary.load "BENCH_torture.json" with
  | Ok summaries when List.length summaries = List.length offline + 3 -> ()
  | Ok summaries ->
      fail "BENCH_torture.json holds %d summaries, expected %d"
        (List.length summaries) (List.length offline + 3)
  | Error msg -> fail "BENCH_torture.json unreadable: %s" msg);
  Printf.printf "torture campaign finished in %.1f s\n"
    (Unix.gettimeofday () -. t0);
  print_endline "run summaries written to BENCH_torture.json";
  match List.rev !failures with
  | [] -> print_endline "torture bench: all acceptance checks passed"
  | msgs ->
      List.iter (fun m -> Printf.eprintf "FAIL: %s\n" m) msgs;
      exit 1
