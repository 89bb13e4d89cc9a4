(* The socket transport's contracts:

   - a Unix-domain client sees the same greeting/ack lines as a pipe
     client, and acked ops survive a graceful stop into the journal;
   - named sessions are multiplexed: two clients addressing the same
     session observe one op stream, in order;
   - admission control refuses (busy, nothing enqueued) when the
     per-session queue is full, and read-only commands shed under
     backlog pressure while mutations keep flowing;
   - an abrupt client disconnect never hurts the server or the
     session other clients share;
   - a command deadline stops a step at a round boundary: the reply
     and the journal name the rounds that ran, and a restore replays
     them to the straight-line state;
   - a journal fault wedges the session and the next command restores
     it from its journal;
   - shutdown executes every queued command before closing;
   - a lockstep client costs one select round per command, or per
     malformed line, and a pipelined burst is answered in order, byte
     for byte;
   - the slow-client limit counts pending bytes only: a client that
     keeps reading is never dropped however much it has been sent;
   - the stdio connection answers a piped script line for line and in
     order, never [busy]; stdin EOF runs every buffered command before
     the goodbye; a refused restore prints [err fatal ...] and the CLI
     exits 1; a socket server whose stdin is at EOF keeps serving. *)

module Transport = Rrs_service.Transport
module Server = Rrs_service.Server
module Journal = Rrs_service.Journal
module Metrics = Rrs_obs.Metrics
module Torture = Rrs_torture.Torture

let temp_dir =
  let counter = ref 0 in
  fun name ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "rrs_transport_%s_%d_%d" name (Unix.getpid ()) !counter)
    in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    dir

let rm_rf dir =
  let rec go path =
    if Sys.is_directory path then begin
      Array.iter (fun f -> go (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
    end
    else Sys.remove path
  in
  if Sys.file_exists dir then go dir

(* ---- a tiny blocking client --------------------------------------- *)

type client = { fd : Unix.file_descr; ic : in_channel; oc : out_channel }

let connect path =
  let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  let rec try_connect n =
    match Unix.connect fd (Unix.ADDR_UNIX path) with
    | () -> ()
    | exception Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when n > 0 ->
        Unix.sleepf 0.02;
        try_connect (n - 1)
  in
  try_connect 250;
  { fd; ic = Unix.in_channel_of_descr fd; oc = Unix.out_channel_of_descr fd }

let send c line =
  output_string c.oc line;
  output_char c.oc '\n';
  flush c.oc

let recv c =
  match In_channel.input_line c.ic with
  | Some l -> l
  | None -> Alcotest.fail "connection closed early"

let close_client c = try Unix.close c.fd with Unix.Unix_error _ -> ()

(* ---- server harness ----------------------------------------------- *)

type server = {
  sock : string;
  stop : bool Atomic.t;
  handle :
    (Transport.stats, [ `Config of string | `Fatal of string ]) result
    Domain.t;
}

let start ?(limits = Transport.default_limits) ?plan config dir =
  let sock = Filename.concat dir "rrs.sock" in
  let stop = Atomic.make false in
  let ready = Atomic.make false in
  let handle =
    Domain.spawn (fun () ->
        let body () =
          Transport.run ~limits
            ~stop:(fun () -> Atomic.get stop)
            ~on_ready:(fun _ -> Atomic.set ready true)
            config (Transport.Unix_socket sock)
        in
        match plan with
        | None -> body ()
        | Some plan -> Rrs_fault.with_plan plan body)
  in
  let deadline = Unix.gettimeofday () +. 5.0 in
  while (not (Atomic.get ready)) && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.01
  done;
  { sock; stop; handle }

let stats_of = function
  | Ok stats -> stats
  | Error (`Config e | `Fatal e) -> Alcotest.failf "transport: %s" e

let finish server =
  Atomic.set server.stop true;
  stats_of (Domain.join server.handle)

(* Serve [script] over the stdio transport on real pipes, as
   `producer | rrs serve | consumer` does: one domain writes the
   script and closes, another reads the replies until EOF. *)
let serve_piped config script =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  let out_r, out_w = Unix.pipe ~cloexec:true () in
  let writer =
    Domain.spawn (fun () ->
        let oc = Unix.out_channel_of_descr in_w in
        (* a server that stopped reading early fails this write (EPIPE,
           SIGPIPE is ignored), and the test its assertions *)
        (try output_string oc script with Sys_error _ -> ());
        try close_out oc with Sys_error _ -> ())
  in
  let reader =
    Domain.spawn (fun () ->
        In_channel.input_lines (Unix.in_channel_of_descr out_r))
  in
  let result = Transport.run config (Transport.Stdio (in_r, out_w)) in
  Unix.close out_w;
  Unix.close in_r;
  Domain.join writer;
  let lines = Domain.join reader in
  Unix.close out_r;
  (result, lines)

let config ?checkpoint_dir () =
  {
    Server.default_config with
    n = 4;
    delta = 2;
    delay = Array.make 4 6;
    checkpoint_dir;
    checkpoint_every = 4;
  }

let starts_with prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* ---- tests -------------------------------------------------------- *)

let test_roundtrip () =
  let dir = temp_dir "roundtrip" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ckpt = Filename.concat dir "state" in
  Unix.mkdir ckpt 0o755;
  let server = start (config ~checkpoint_dir:ckpt ()) dir in
  let c = connect server.sock in
  Alcotest.(check bool) "greeting" true (starts_with "ok session" (recv c));
  send c "submit 0 1 5";
  Alcotest.(check bool)
    "submit acked" true
    (starts_with "ok submitted 5 jobs" (recv c));
  send c "step 3";
  Alcotest.(check bool) "step acked" true (starts_with "ok stepped 3" (recv c));
  send c "state";
  let state = recv c in
  Alcotest.(check bool) "state is json" true (starts_with "{" state);
  send c "quit";
  Alcotest.(check bool) "bye" true (starts_with "ok bye" (recv c));
  close_client c;
  let stats = finish server in
  Alcotest.(check int) "one client" 1 stats.Transport.conns_accepted;
  Alcotest.(check int) "four commands" 4 stats.Transport.commands;
  (* acked ops reached the journal: a stdio restart sees them *)
  let result, output =
    serve_piped (config ~checkpoint_dir:ckpt ()) "state\nquit\n"
  in
  ignore (stats_of result);
  Alcotest.(check bool)
    "restored both acked ops" true
    (List.exists (fun l -> starts_with "ok restored round=3 ops=2" l) output)

let test_multiplex () =
  let dir = temp_dir "multiplex" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let server = start (config ()) dir in
  let a = connect server.sock in
  let b = connect server.sock in
  ignore (recv a);
  ignore (recv b);
  send a "open shared";
  Alcotest.(check bool)
    "fresh named session" true
    (starts_with "ok session name=shared" (recv a));
  send a "submit 0 1 4";
  ignore (recv a);
  send b "attach shared";
  Alcotest.(check bool) "attach" true (starts_with "ok attached shared" (recv b));
  send b "step 2";
  Alcotest.(check bool)
    "b steps the shared session" true
    (starts_with "ok stepped 2 rounds to round 2" (recv b));
  send a "sessions";
  let header = recv a in
  Alcotest.(check bool) "two sessions" true (starts_with "ok sessions 2" header);
  ignore (recv a);
  let shared_line = recv a in
  Alcotest.(check bool)
    "shared shows both clients' ops" true
    (starts_with "ok shared round=2 ops=2" shared_line);
  close_client a;
  close_client b;
  ignore (finish server)

let test_busy_admission () =
  let dir = temp_dir "busy" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* queue_limit 0: every command is refused at admission — the
     degenerate bound proves the refusal path acks nothing *)
  let limits = { Transport.default_limits with queue_limit = 0 } in
  let server = start ~limits (config ()) dir in
  let c = connect server.sock in
  ignore (recv c);
  send c "submit 0 1 5";
  let reply = recv c in
  Alcotest.(check bool)
    "busy, not acked" true
    (starts_with "busy queue session=default" reply);
  close_client c;
  let stats = finish server in
  Alcotest.(check int) "counted busy" 1 stats.Transport.busy;
  Alcotest.(check int) "no command executed" 0 stats.Transport.commands

let test_shed () =
  let dir = temp_dir "shed" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  (* threshold -1: any backlog sheds read-only commands, while the
     mutation stream keeps flowing *)
  let limits = { Transport.default_limits with shed_threshold = -1 } in
  let server = start ~limits (config ()) dir in
  let c = connect server.sock in
  ignore (recv c);
  send c "state";
  Alcotest.(check bool) "state shed" true (starts_with "busy shed" (recv c));
  send c "submit 0 1 2";
  Alcotest.(check bool)
    "mutation still served" true
    (starts_with "ok submitted" (recv c));
  close_client c;
  let stats = finish server in
  Alcotest.(check int) "counted shed" 1 stats.Transport.shed

let test_abrupt_disconnect () =
  let dir = temp_dir "abrupt" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let server = start (config ()) dir in
  let rude = connect server.sock in
  ignore (recv rude);
  send rude "submit 0 1 3";
  (* vanish without reading the ack *)
  close_client rude;
  let polite = connect server.sock in
  ignore (recv polite);
  send polite "state";
  Alcotest.(check bool)
    "server alive after abrupt disconnect" true
    (starts_with "{" (recv polite));
  close_client polite;
  let stats = finish server in
  Alcotest.(check int) "both clients counted" 2 stats.Transport.conns_accepted

(* Commit a checkpoint of [s] and return [checkpoint.json]'s bytes:
   the state line and the machine state, [Session.save] included. *)
let checkpoint_bytes h s dir =
  ignore (Server.checkpoint_session h s);
  In_channel.with_open_bin (Filename.concat dir "checkpoint.json")
    In_channel.input_all

let test_deadline_cut () =
  let dir = temp_dir "deadline" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ckpt = Filename.concat dir "state" in
  Unix.mkdir ckpt 0o755;
  (* a Delay injection at the engine's own probe point makes the
     step's second round overshoot its 0.2 s budget deterministically;
     with no cadence checkpoint, segment 0 keeps every op *)
  let plan =
    Rrs_fault.plan
      [ Rrs_fault.delay_on "engine.round" (Rrs_fault.Nth 2) ~seconds:0.5 ]
  in
  let limits = { Transport.default_limits with command_deadline = Some 0.2 } in
  let config = { (config ~checkpoint_dir:ckpt ()) with checkpoint_every = 0 } in
  let server = start ~limits ~plan config dir in
  let c = connect server.sock in
  ignore (recv c);
  send c "submit 0 1 5";
  ignore (recv c);
  send c "step 5";
  Alcotest.(check string) "cut reply" "ok stepped 2 of 5 rounds to round 2"
    (recv c);
  send c "step 3";
  Alcotest.(check string) "a step within its budget runs whole"
    "ok stepped 3 rounds to round 5" (recv c);
  close_client c;
  ignore (finish server);
  let ops =
    let r = Journal.reader () in
    let segments =
      List.filter_map Journal.segment_of_name (Array.to_list (Sys.readdir ckpt))
    in
    match
      Result.bind (Journal.top r ckpt) (fun (_, from) ->
          Journal.fold r ckpt from ~segments ~init:[] ~f:(fun ops op -> op :: ops))
    with
    | Ok (ops, None, _) -> List.rev ops
    | _ -> Alcotest.fail "journal unreadable"
  in
  Alcotest.(check (list string)) "journaled as the rounds that ran"
    [ "submit 0 1 5"; "step 2"; "step 3" ]
    (List.map Journal.op_to_line ops);
  (* restore from the journal alone: the replay runs [step 2] with no
     budget, and lands on the state of a session fed the journaled ops *)
  Sys.remove (Filename.concat ckpt "checkpoint.json");
  let h = Server.host config in
  let restored =
    checkpoint_bytes h (Server.open_session h Server.default_session) ckpt
  in
  let straight = Filename.concat dir "straight" in
  Unix.mkdir straight 0o755;
  let h = Server.host { config with checkpoint_dir = Some straight } in
  let s = Server.open_session h Server.default_session in
  List.iter
    (fun op ->
      match Server.apply_op s op with
      | Ok () -> Server.commit h s op
      | Error e -> Alcotest.failf "straight line refused: %s" e)
    ops;
  Alcotest.(check string) "restore = straight line" (checkpoint_bytes h s straight)
    restored

(* A fault at the [serve.journal] probe strikes after the apply: the
   session no longer matches its journal, so it is wedged, and the next
   command addressed to it restores it from the journal, without the
   un-acked op. *)
let test_journal_fault_reopens () =
  let dir = temp_dir "journal_fault" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ckpt = Filename.concat dir "state" in
  Unix.mkdir ckpt 0o755;
  let plan =
    Rrs_fault.plan
      [ Rrs_fault.fail_on ~transient:true "serve.journal" (Rrs_fault.Nth 2) ]
  in
  let config = config ~checkpoint_dir:ckpt () in
  let server = start ~plan config dir in
  let c = connect server.sock in
  ignore (recv c);
  send c "submit 0 1 2";
  ignore (recv c);
  send c "submit 0 2 1";
  let reply = recv c in
  Alcotest.(check bool) ("fault reply: " ^ reply) true
    (starts_with "err transient fault injected at serve.journal" reply);
  send c "state";
  Alcotest.(check string) "restored from the journal"
    (Rrs_service.Snapshot.to_line
       (Torture.straight_line config
          [ Journal.Submit { round = 0; color = 1; count = 2 } ]))
    (recv c);
  send c "step 1";
  Alcotest.(check string) "the restored session serves again"
    "ok stepped 1 round to round 1" (recv c);
  close_client c;
  let stats = finish server in
  Alcotest.(check int) "wedge counted" 1 stats.Transport.wedges

let test_shutdown_drains () =
  let dir = temp_dir "drain" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ckpt = Filename.concat dir "state" in
  Unix.mkdir ckpt 0o755;
  let server = start (config ~checkpoint_dir:ckpt ()) dir in
  let c = connect server.sock in
  ignore (recv c);
  (* queue a burst, then stop the server without reading a byte:
     every queued command must still execute and reach the journal *)
  for i = 1 to 8 do
    send c (Printf.sprintf "submit 0 %d 1" (i mod 4))
  done;
  Unix.sleepf 0.2;
  Atomic.set server.stop true;
  let stats = stats_of (Domain.join server.handle) in
  close_client c;
  Alcotest.(check int) "all queued commands executed" 8 stats.Transport.commands;
  (* the shutdown checkpointed them and retired the segment that held
     them: a restore holds all eight *)
  let h = Server.host (config ~checkpoint_dir:ckpt ()) in
  let s = Server.open_session h Server.default_session in
  Alcotest.(check int) "all ops journaled" 8 (Server.session_ops s);
  Server.abandon_session h s

(* ---- write points ------------------------------------------------ *)

(* A lockstep client (send one command, wait for its reply) costs one
   select round per command: the reply is written as soon as the
   command ran, not after another select reports the socket writable. *)
let test_lockstep_select_rounds () =
  let dir = temp_dir "lockstep" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let metrics = Metrics.create () in
  let rounds = Metrics.counter metrics "serve_select_rounds" in
  let server = start { (config ()) with metrics = Some metrics } dir in
  let c = connect server.sock in
  ignore (recv c);
  let commands = 200 in
  let before = Metrics.value rounds in
  for i = 1 to commands do
    send c (if i mod 2 = 0 then "step" else "submit 1 1");
    ignore (recv c)
  done;
  let spent = Metrics.value rounds - before in
  close_client c;
  let stats = finish server in
  (* every command needs the select that reports it readable (the
     first one's may have been counted already); a few idle 50 ms
     timeouts may land inside the loop on a busy machine.  Two rounds
     per command would be ~2N *)
  Alcotest.(check bool)
    (Printf.sprintf "%d select rounds for %d commands" spent commands)
    true
    (spent >= commands - 1 && spent <= commands + 20);
  Alcotest.(check bool) "stats mirror the counter" true
    (stats.Transport.select_rounds >= spent)

(* The same for a line answered at read time: an [err] for a malformed
   line is written in the round that read it, not after another select
   reports the socket writable. *)
let test_lockstep_error_select_rounds () =
  let dir = temp_dir "lockstep_err" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let metrics = Metrics.create () in
  let rounds = Metrics.counter metrics "serve_select_rounds" in
  let server = start { (config ()) with metrics = Some metrics } dir in
  let c = connect server.sock in
  ignore (recv c);
  let lines = 200 in
  let before = Metrics.value rounds in
  for i = 1 to lines do
    send c (if i mod 2 = 0 then "frobnicate" else "submit x 1");
    let reply = recv c in
    if not (String.starts_with ~prefix:"err " reply) then
      Alcotest.failf "line %d answered %S" i reply
  done;
  let spent = Metrics.value rounds - before in
  close_client c;
  ignore (finish server);
  Alcotest.(check bool)
    (Printf.sprintf "%d select rounds for %d malformed lines" spent lines)
    true
    (spent >= lines - 1 && spent <= lines + 20)

(* 32 commands in one write, [quit] last: 32 replies in command order,
   then EOF.  Queued commands' replies are batched into the next
   round's write, the last one (queue drained) goes out at once. *)
let test_pipelined_burst () =
  let dir = temp_dir "burst" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let server = start (config ()) dir in
  let c = connect server.sock in
  ignore (recv c);
  let commands =
    List.init 31 (fun i ->
        match i mod 4 with
        | 0 -> Printf.sprintf "submit %d 2" (i mod 3)
        | 1 -> Printf.sprintf "submit %d 1" (3 - (i mod 3))
        | 2 -> "step"
        | _ -> if i mod 8 = 3 then "step 2" else "submit 0 0 1")
    @ [ "quit" ]
  in
  let script = String.concat "" (List.map (fun l -> l ^ "\n") commands) in
  ignore (Unix.write_substring c.fd script 0 (String.length script));
  let replies = In_channel.input_lines c.ic in
  close_client c;
  ignore (finish server);
  Alcotest.(check (list string)) "replies in order, then EOF"
    [
      "ok submitted 2 jobs of color 0 at round 0";
      "ok submitted 1 job of color 2 at round 0";
      "ok stepped 1 round to round 1";
      "ok stepped 2 rounds to round 3";
      "ok submitted 2 jobs of color 1 at round 3";
      "ok submitted 1 job of color 1 at round 3";
      "ok stepped 1 round to round 4";
      "err submit: round 0 already executed (current round is 4)";
      "ok submitted 2 jobs of color 2 at round 4";
      "ok submitted 1 job of color 3 at round 4";
      "ok stepped 1 round to round 5";
      "ok stepped 2 rounds to round 7";
      "ok submitted 2 jobs of color 0 at round 7";
      "ok submitted 1 job of color 2 at round 7";
      "ok stepped 1 round to round 8";
      "err submit: round 0 already executed (current round is 8)";
      "ok submitted 2 jobs of color 1 at round 8";
      "ok submitted 1 job of color 1 at round 8";
      "ok stepped 1 round to round 9";
      "ok stepped 2 rounds to round 11";
      "ok submitted 2 jobs of color 2 at round 11";
      "ok submitted 1 job of color 3 at round 11";
      "ok stepped 1 round to round 12";
      "err submit: round 0 already executed (current round is 12)";
      "ok submitted 2 jobs of color 0 at round 12";
      "ok submitted 1 job of color 2 at round 12";
      "ok stepped 1 round to round 13";
      "ok stepped 2 rounds to round 15";
      "ok submitted 2 jobs of color 1 at round 15";
      "ok submitted 1 job of color 1 at round 15";
      "ok stepped 1 round to round 16";
      "ok bye round=16 executed=21 dropped=2 recolorings=16 cost=34";
    ]
    replies

(* Lines answered at read time — a bad line, a command refused at
   admission — are answered after the commands queued before them:
   replies keep the order of the lines. *)
let test_answers_keep_line_order () =
  let dir = temp_dir "order" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let limits = { Transport.default_limits with queue_limit = 3 } in
  let server = start ~limits (config ()) dir in
  let c = connect server.sock in
  ignore (recv c);
  (* three commands fill the queue; the last two lines are refused *)
  let burst = "submit 0 1\nstep\nbogus\nsubmit 1 1\nstate\nstep\n" in
  ignore (Unix.write_substring c.fd burst 0 (String.length burst));
  let replies = List.init 6 (fun _ -> recv c) in
  close_client c;
  ignore (finish server);
  let busy = "busy queue session=default depth=3 retry-after=0.05" in
  Alcotest.(check (list string)) "one reply per line, in line order"
    [
      "ok submitted 1 job of color 0 at round 0";
      "ok stepped 1 round to round 1";
      "err unknown command \"bogus\" (try: help)";
      "ok submitted 1 job of color 1 at round 1";
      busy;
      busy;
    ]
    replies

(* read exactly [len] bytes from a raw descriptor *)
let read_exactly fd len =
  let buf = Bytes.create len in
  let rec go off =
    if off < len then
      match Unix.read fd buf off (len - off) with
      | 0 -> Alcotest.fail "connection closed early"
      | n -> go (off + n)
  in
  go 0;
  Bytes.to_string buf

(* one line, byte by byte, so nothing past it leaves the kernel *)
let read_line_raw fd =
  let b = Buffer.create 256 in
  let rec go () =
    match read_exactly fd 1 with
    | "\n" -> Buffer.contents b
    | ch ->
        Buffer.add_string b ch;
        go ()
  in
  go ()

(* The slow-client limit is on pending bytes.  A client lets the
   server run [window] commands whose ~2 KB replies, ~400 KB, are more
   than a default socket buffer (208 KiB) holds, then reads one reply
   per command it sends.  The server's writes are partial and its
   output buffer never drains, while its pending bytes stay below
   [window] replies, under the limit.  Four times the limit in total
   output must not get it dropped as slow. *)
let test_steady_reader_not_slow () =
  let dir = temp_dir "steady" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let window = 180 in
  let limit = 512 * 1024 in
  let limits =
    {
      Transport.default_limits with
      write_buffer_limit = limit;
      queue_limit = 2 * window;
      shed_threshold = 2 * window;
    }
  in
  let metrics = Metrics.create () in
  let commands = Metrics.counter metrics "serve_commands" in
  let cfg =
    { (config ()) with delay = Array.make 1000 6; metrics = Some metrics }
  in
  let server = start ~limits cfg dir in
  let c = connect server.sock in
  ignore (read_line_raw c.fd);
  let state = String.concat "" (List.init window (fun _ -> "state\n")) in
  ignore (Unix.write_substring c.fd state 0 (String.length state));
  (* the whole window ran: its replies fill the socket and the rest
     waits in the server's buffer *)
  let deadline = Unix.gettimeofday () +. 5.0 in
  while Metrics.value commands < window && Unix.gettimeofday () < deadline do
    Unix.sleepf 0.005
  done;
  let reply = read_line_raw c.fd ^ "\n" in
  let len = String.length reply in
  Alcotest.(check bool) "a state line" true (starts_with "{" reply);
  Alcotest.(check bool) "window under the limit" true (window * len < limit);
  let rounds = 4 * limit / len in
  for i = 1 to rounds do
    send c "state";
    let r = read_exactly c.fd len in
    if r <> reply then Alcotest.failf "reply %d differs" i
  done;
  for _ = 2 to window do
    ignore (read_exactly c.fd len)
  done;
  send c "quit";
  Alcotest.(check bool) "still connected" true
    (starts_with "ok bye" (read_line_raw c.fd));
  close_client c;
  let stats = finish server in
  Alcotest.(check int) "no slow drop" 0 stats.Transport.slow_drops

(* A [open NAME] that fails on the filesystem (a regular file where the
   session directory should be) answers [err open: ...] and leaves the
   client's current session alone: not wedged, not replayed. *)
let test_failed_open () =
  let dir = temp_dir "failed_open" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ckpt = Filename.concat dir "state" in
  Unix.mkdir ckpt 0o755;
  Unix.mkdir (Filename.concat ckpt "sessions") 0o755;
  Out_channel.with_open_text
    (Filename.concat (Filename.concat ckpt "sessions") "bad")
    (fun oc -> output_string oc "not a directory\n");
  let server = start (config ~checkpoint_dir:ckpt ()) dir in
  let c = connect server.sock in
  ignore (recv c);
  send c "submit 0 1 2";
  ignore (recv c);
  send c "open bad";
  let reply = recv c in
  Alcotest.(check bool) ("open refused: " ^ reply) true
    (starts_with "err open: " reply);
  send c "step 1";
  Alcotest.(check string) "current session still serves"
    "ok stepped 1 round to round 1" (recv c);
  send c "sessions";
  Alcotest.(check string) "one session" "ok sessions 1" (recv c);
  Alcotest.(check string) "default not wedged"
    "ok default round=1 ops=2 pending=0" (recv c);
  close_client c;
  let stats = finish server in
  Alcotest.(check int) "serve_wedged stays 0" 0 stats.Transport.wedges

(* A socket client that leaves its session, by [quit] or by just
   closing, leaves it checkpointed: a copy of the session's directory
   taken while the server still runs restores without replaying an
   op. *)
let test_left_by_disconnect () =
  let dir = temp_dir "left" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let ckpt = Filename.concat dir "state" in
  Unix.mkdir ckpt 0o755;
  (* 4 colors: a leave checkpoints at 4 units, the cadence only at 1024 *)
  let config = { (config ~checkpoint_dir:ckpt ()) with checkpoint_every = 1024 } in
  let server = start config dir in
  let work name ~quit =
    let c = connect server.sock in
    ignore (recv c);
    send c ("open " ^ name);
    ignore (recv c);
    List.iter
      (fun line ->
        send c line;
        Alcotest.(check bool) (name ^ ": " ^ line) true (starts_with "ok " (recv c)))
      [ "submit 0 1 2"; "submit 0 2 2"; "step 3" ];
    send c "state";
    let state = recv c in
    if quit then begin
      send c "quit";
      Alcotest.(check bool) "bye" true (starts_with "ok bye" (recv c))
    end;
    close_client c;
    state
  in
  let quit_state = work "q" ~quit:true in
  let closed_state = work "c" ~quit:false in
  (* a command answered on a later connection: the server has handled
     both disconnects by then *)
  let c = connect server.sock in
  ignore (recv c);
  send c "sessions";
  Alcotest.(check string) "three sessions" "ok sessions 3" (recv c);
  let restores_without_replay name state =
    let copy = Filename.concat dir ("copy-" ^ name) in
    let src = Filename.concat (Filename.concat ckpt "sessions") name in
    let dst = Filename.concat copy "sessions" in
    List.iter (fun d -> Unix.mkdir d 0o755) [ copy; dst; Filename.concat dst name ];
    Array.iter
      (fun f ->
        let contents =
          In_channel.with_open_bin (Filename.concat src f) In_channel.input_all
        in
        Out_channel.with_open_bin
          (Filename.concat (Filename.concat dst name) f)
          (fun oc -> output_string oc contents))
      (Sys.readdir src);
    let metrics = Metrics.create () in
    let h =
      Server.host { config with checkpoint_dir = Some copy; metrics = Some metrics }
    in
    let s = Server.open_session h name in
    Alcotest.(check int) (name ^ ": no op replayed") 0
      (Metrics.value (Metrics.counter metrics "serve_restore_replayed_ops"));
    Alcotest.(check string) (name ^ ": the state before the disconnect") state
      (Rrs_service.Snapshot.to_line (Server.session_snapshot s));
    Server.abandon_session h s
  in
  restores_without_replay "q" quit_state;
  restores_without_replay "c" closed_state;
  close_client c;
  ignore (finish server)

(* The soft RLIMIT_NOFILE, from /proc/self/limits; [None] when it
   cannot be read or is unlimited. *)
let nofile_limit () =
  let path = "/proc/self/limits" in
  match In_channel.with_open_text path In_channel.input_lines with
  | exception Sys_error _ -> None
  | lines ->
      List.find_map
        (fun l ->
          if starts_with "Max open files" l then
            match List.filter (( <> ) "") (String.split_on_char ' ' l) with
            | _ :: _ :: _ :: soft :: _ -> int_of_string_opt soft
            | _ -> None
          else None)
        lines

(* Every open durable session keeps its journal fd, so after about a
   thousand sessions the next accepted connection gets a descriptor
   past select's FD_SETSIZE.  That connection is refused with a busy
   line; the server and its sessions live on. *)
let test_fd_limit () =
  match nofile_limit () with
  | Some limit when limit <= 1024 ->
      Printf.printf
        "skipped: RLIMIT_NOFILE is %d, so the process cannot open a \
         descriptor past select's limit of 1024\n"
        limit;
      Alcotest.skip ()
  | _ ->
      let dir = temp_dir "fd_limit" in
      Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
      let ckpt = Filename.concat dir "state" in
      Unix.mkdir ckpt 0o755;
      let server = start (config ~checkpoint_dir:ckpt ()) dir in
      let c = connect server.sock in
      ignore (recv c);
      let sessions = 1100 in
      for i = 1 to sessions do
        send c (Printf.sprintf "open s%d" i);
        ignore (recv c)
      done;
      let late = connect server.sock in
      let reply = recv late in
      Alcotest.(check bool) ("late client refused: " ^ reply) true
        (starts_with "busy connections" reply);
      Alcotest.(check (option string)) "then closed" None
        (In_channel.input_line late.ic);
      close_client late;
      send c "sessions";
      Alcotest.(check string) "server alive, sessions kept"
        (Printf.sprintf "ok sessions %d" (sessions + 1))
        (recv c);
      close_client c;
      let stats = finish server in
      Alcotest.(check int) "refusal counted busy" 1 stats.Transport.busy

(* ---- the stdio connection ----------------------------------------- *)

(* 1200 commands, ~11 KB: far past one 4096-byte read and past the
   default queue limit of 64.  A script is answered line for line, in
   order, and never [busy]. *)
let test_stdio_script () =
  let commands = 1200 in
  let line i =
    if i mod 4 = 3 then "step" else Printf.sprintf "submit %d 1" (i mod 4)
  in
  let expected i =
    let round = i / 4 in
    if i mod 4 = 3 then
      Printf.sprintf "ok stepped 1 round to round %d" (round + 1)
    else
      Printf.sprintf "ok submitted 1 job of color %d at round %d" (i mod 4)
        round
  in
  let script =
    String.concat "\n" (List.init commands line @ [ "quit"; "" ])
  in
  let result, output = serve_piped (config ()) script in
  let stats = stats_of result in
  Alcotest.(check int) "one connection" 1 stats.Transport.conns_accepted;
  Alcotest.(check int) "every command ran" (commands + 1)
    stats.Transport.commands;
  Alcotest.(check int) "nothing busy" 0 stats.Transport.busy;
  match output with
  | greeting :: rest ->
      Alcotest.(check bool) "greeting" true (starts_with "ok session" greeting);
      Alcotest.(check int) "one reply per command" (commands + 1)
        (List.length rest);
      List.iteri
        (fun i reply ->
          if i < commands then
            Alcotest.(check string) (Printf.sprintf "reply %d" i) (expected i)
              reply
          else
            Alcotest.(check bool) ("bye: " ^ reply) true
              (starts_with
                 (Printf.sprintf "ok bye round=%d executed=" (commands / 4))
                 reply))
        rest
  | [] -> Alcotest.fail "no output"

(* EOF with commands still unread: every one runs (the unterminated
   last line too) before the drain's goodbye. *)
let test_stdio_eof_drains () =
  let submits = 300 in
  let script =
    String.concat ""
      (List.init submits (fun i -> Printf.sprintf "submit %d 1\n" (i mod 4)))
    ^ "state"
  in
  let result, output = serve_piped (config ()) script in
  let stats = stats_of result in
  Alcotest.(check int) "every command ran" (submits + 1)
    stats.Transport.commands;
  Alcotest.(check int) "greeting + replies + bye" (submits + 3)
    (List.length output);
  List.iteri
    (fun i l ->
      if i >= 1 && i <= submits then
        Alcotest.(check bool) ("acked: " ^ l) true
          (starts_with "ok submitted" l))
    output;
  Alcotest.(check bool) "the state line ran" true
    (starts_with "{" (List.nth output (submits + 1)));
  Alcotest.(check string) "then the goodbye" "ok bye shutdown"
    (List.nth output (submits + 2))

(* the CLI built next to this test *)
let rrs_exe =
  List.fold_left Filename.concat
    (Filename.dirname Sys.executable_name)
    [ Filename.parent_dir_name; "bin"; "rrs.exe" ]

(* Run [rrs ARGS] with stdin already at EOF, stdout into [out]. *)
let spawn_rrs args ~out =
  let in_r, in_w = Unix.pipe ~cloexec:true () in
  Unix.close in_w;
  let out_fd =
    Unix.openfile out [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
  in
  let err = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
  let pid =
    Unix.create_process rrs_exe
      (Array.of_list (rrs_exe :: args))
      in_r out_fd err
  in
  List.iter Unix.close [ in_r; out_fd; err ];
  pid

let exit_code pid =
  match snd (Unix.waitpid [] pid) with
  | Unix.WEXITED code -> code
  | Unix.WSIGNALED s | Unix.WSTOPPED s ->
      Alcotest.failf "rrs killed by signal %d" s

(* A corrupt journal body refuses to restore (tier 3): the stdio
   connection prints [err fatal ...] and the CLI exits 1. *)
let test_stdio_refused () =
  let dir = temp_dir "refused" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let journal = Filename.concat dir "journal.jsonl" in
  let w =
    Journal.create dir
      {
        Journal.policy = "dlru-edf";
        n = 4;
        delta = 2;
        delay = Array.make 4 6;
        mini_rounds = 1;
      }
  in
  Journal.append w (Journal.Submit { round = 0; color = 1; count = 2 });
  Journal.close w;
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 journal
    (fun oc -> output_string oc "not an op\nstep 1\n");
  let out = Filename.concat dir "out.txt" in
  let pid =
    spawn_rrs ~out
      [
        "serve"; "-n"; "4"; "--delta"; "2"; "--colors"; "4";
        "--delay-bound"; "6"; "--checkpoint-dir"; dir;
      ]
  in
  Alcotest.(check int) "exit 1" 1 (exit_code pid);
  match In_channel.with_open_text out In_channel.input_lines with
  | [ line ] ->
      Alcotest.(check bool) ("refused: " ^ line) true
        (starts_with "err fatal: " line)
  | lines ->
      Alcotest.failf "want one err fatal line, got %d lines" (List.length lines)

(* perfbench starts its socket servers with stdin at EOF: a socket
   server never reads stdin, so it keeps serving. *)
let test_socket_stdin_eof () =
  let dir = temp_dir "stdin_eof" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let sock = Filename.concat dir "rrs.sock" in
  let pid =
    spawn_rrs ~out:(Filename.concat dir "out.txt")
      [ "serve"; "--socket"; sock; "-n"; "4"; "--delta"; "2"; "--colors"; "4" ]
  in
  let c = connect sock in
  Alcotest.(check bool) "greeting" true (starts_with "ok session" (recv c));
  Unix.sleepf 0.2;
  send c "submit 0 1 3";
  Alcotest.(check bool) "still serving" true
    (starts_with "ok submitted 3 jobs" (recv c));
  send c "shutdown";
  Alcotest.(check string) "shutdown" "ok shutting down" (recv c);
  close_client c;
  Alcotest.(check int) "clean exit" 0 (exit_code pid)

let () =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  Alcotest.run "transport"
    [
      ( "socket",
        [
          Alcotest.test_case "round-trip + durable acks" `Quick test_roundtrip;
          Alcotest.test_case "multiplexed sessions" `Quick test_multiplex;
          Alcotest.test_case "abrupt disconnect" `Quick test_abrupt_disconnect;
          Alcotest.test_case "failed open wedges nothing" `Quick
            test_failed_open;
          Alcotest.test_case "a client that leaves checkpoints" `Quick
            test_left_by_disconnect;
          Alcotest.test_case "accept past select's fd limit" `Quick
            test_fd_limit;
        ] );
      ( "write points",
        [
          Alcotest.test_case "one select round per lockstep command" `Quick
            test_lockstep_select_rounds;
          Alcotest.test_case "one select round per lockstep error" `Quick
            test_lockstep_error_select_rounds;
          Alcotest.test_case "answers keep the order of the lines" `Quick
            test_answers_keep_line_order;
          Alcotest.test_case "pipelined burst answered in order" `Quick
            test_pipelined_burst;
          Alcotest.test_case "a steady reader is not slow" `Quick
            test_steady_reader_not_slow;
        ] );
      ( "overload",
        [
          Alcotest.test_case "busy at admission" `Quick test_busy_admission;
          Alcotest.test_case "shed read-only" `Quick test_shed;
          Alcotest.test_case "deadline cuts a step at a round boundary" `Quick
            test_deadline_cut;
          Alcotest.test_case "journal fault wedges, next command restores"
            `Quick test_journal_fault_reopens;
          Alcotest.test_case "shutdown drains the queue" `Quick
            test_shutdown_drains;
        ] );
      ( "stdio",
        [
          Alcotest.test_case "a script is never busy" `Quick test_stdio_script;
          Alcotest.test_case "EOF drains buffered commands" `Quick
            test_stdio_eof_drains;
          Alcotest.test_case "refused restore exits 1" `Quick
            test_stdio_refused;
          Alcotest.test_case "socket server ignores stdin EOF" `Quick
            test_socket_stdin_eof;
        ] );
    ]
