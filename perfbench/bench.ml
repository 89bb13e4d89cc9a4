(* End-to-end benchmark of `rrs serve` over a Unix-domain socket.

   The traffic is the repo's own workload families, replayed as the
   service protocol by Arrival_stream.to_script (what `rrs serve
   --family F --emit-script` prints).  A run builds a small pool of
   instances of one family from --seed; every client session plays one
   instance's script from the start: [open NAME], a [reconfigure
   delay=...] giving the session its instance's delay bounds, then the
   script without its final [quit].  When a script ends, the connection
   opens its next session.

   One run drives one workload through a real server process in four
   load shapes, then checks every reply:

   - lockstep: one client, closed loop, one command in flight;
   - windowed: several connections, each keeping a window of commands
     in flight (pipelined);
   - fixed-rate: an open loop over several connections at a fixed share
     of the throughput just measured by the windowed shape, latency
     timed from when each command was due;
   - kill/restore: a server holding a fixed set of finished sessions is
     SIGKILLed; a new server reopens them, and each restore is timed and
     its states compared with the states before the kill.

   Each end-to-end metric except the set-up time is a ratio to a floor
   measured at the same moments: an echo server (this executable with
   --echo) for latency, and a fixed piece of CPU work timed on the
   servers' CPU for throughput and restore time.

   Correctness: the replies of every session are hashed and compared
   with those of an in-process reference host (Server.exec on an
   ephemeral host) fed the same commands.

   With --trace 1 the run also replays the kill/restore history through
   the service layers in-process and times each call into Protocol.parse,
   Server.exec, Server.apply_op, Server.checkpoint_session and the restore
   through Server.open_session, with the minor words each allocates.

   The last line of stdout is the result object; diagnostics go to
   stderr.  See perfbench/README.md. *)

module Server = Rrs_service.Server
module Protocol = Rrs_service.Protocol
module Families = Rrs_workload.Families
module Stream = Rrs_workload.Arrival_stream
module Instance = Rrs_core.Instance
module Json = Rrs_obs.Json

external clock_ns : unit -> (int64[@unboxed])
  = "clock_linux_get_time_bytecode" "clock_linux_get_time_native"
[@@noalloc]

let now () = Int64.to_int (clock_ns ())
let log fmt = Printf.eprintf (fmt ^^ "\n%!")

(* ---- growable int samples ------------------------------------------- *)

module Vec = struct
  type t = { mutable a : int array; mutable n : int }

  (* large enough that no timed phase grows it *)
  let create () = { a = Array.make (1 lsl 20) 0; n = 0 }

  let push v x =
    if v.n = Array.length v.a then begin
      let b = Array.make (2 * v.n) 0 in
      Array.blit v.a 0 b 0 v.n;
      v.a <- b
    end;
    v.a.(v.n) <- x;
    v.n <- v.n + 1

  (* The samples from index [from] on, sorted. *)
  let sorted ?(from = 0) v =
    let s = Array.sub v.a from (v.n - from) in
    Array.sort compare s;
    s
end

(* Nearest-rank quantile of a sorted, nonempty array. *)
let quantile sorted q =
  let n = Array.length sorted in
  sorted.(min (n - 1) (int_of_float (q *. float_of_int n)))

let median_float xs =
  let s = Array.copy xs in
  Array.sort compare s;
  quantile s 0.5

let p50 a = float_of_int (quantile a 0.5)

let mean a =
  float_of_int (Array.fold_left ( + ) 0 a) /. float_of_int (Array.length a)

(* ---- workloads --------------------------------------------------------- *)

type workload = {
  name : string;
  family : string;  (** a Families id *)
  colors : int option;  (** scale the family to this many colors *)
  n : int;  (** resources *)
  step_chunk : int;  (** rounds per [step] line *)
  pool : int;  (** instances built per run *)
  restore_sessions : int;  (** sessions in the kill/restore history *)
}

(* The open-loop rate, as a share of the windowed throughput: well below
   capacity, since the echo floor shares the servers' CPU at the same
   rate and pipelined throughput overstates one-command-per-write
   capacity. *)
let open_loop_load = 0.25

(* Live round-by-round streaming of the [bursty] family at its registry
   size: every round is a [step 1], so commands are small and the fixed
   cost of each (socket loop, parse, journal append) dominates. *)
let bursty =
  {
    name = "bursty";
    family = "bursty";
    colors = None;
    n = 8;
    step_chunk = 1;
    pool = 32;
    restore_sessions = 32;
  }

(* The [zipf] family scaled to 1024 colors, stepped in the default
   64-round chunks of --emit-script: long-lived sessions with a large
   cache and pending set, heavy [step] commands and checkpoints. *)
let zipf =
  {
    name = "zipf";
    family = "zipf";
    colors = Some 1024;
    n = 64;
    step_chunk = 64;
    pool = 4;
    restore_sessions = 1;
  }

let workloads = [ bursty; zipf ]

(* The traffic of one run: one script per pool instance, and the server
   geometry every session starts from. *)
type traffic = {
  w : workload;
  delta : int;
  num_colors : int;
  delay_bound : int;  (** the server's default bound, the commonest one *)
  scripts : string array array;
}

let build_instance w ~seed =
  match Families.find w.family with
  | None -> failwith ("unknown family " ^ w.family)
  | Some f -> (
      match w.colors with
      | None -> f.build ~seed
      | Some num_colors -> (
          match Families.scale_to f ~num_colors ~seed with
          | Ok i -> i
          | Error e -> failwith (Families.string_of_scale_error e)))

let traffic w ~seed =
  let instances =
    Array.init w.pool (fun i -> build_instance w ~seed:((seed * 1000) + i))
  in
  let first = instances.(0) in
  let delta = first.Instance.delta and num_colors = first.Instance.num_colors in
  Array.iter
    (fun (i : Instance.t) ->
      if i.delta <> delta || i.num_colors <> num_colors then
        failwith "the pool's instances differ in delta or colors")
    instances;
  let freq = Hashtbl.create 8 in
  Array.iter
    (fun (i : Instance.t) ->
      Array.iter
        (fun d ->
          Hashtbl.replace freq d
            (1 + Option.value ~default:0 (Hashtbl.find_opt freq d)))
        i.delay)
    instances;
  let delay_bound =
    fst
      (Hashtbl.fold
         (fun d k (bd, bk) -> if k > bk || (k = bk && d < bd) then (d, k) else (bd, bk))
         freq (0, 0))
  in
  let script (i : Instance.t) =
    let b = Buffer.create 65536 in
    Stream.to_script ~step_chunk:w.step_chunk (Stream.of_instance i) b;
    let lines =
      List.filter
        (fun l -> l <> "" && l <> "quit")
        (String.split_on_char '\n' (Buffer.contents b))
    in
    let own =
      List.filter_map
        (fun c ->
          let d = i.delay.(c) in
          if d = delay_bound then None else Some (Printf.sprintf "%d:%d" c d))
        (List.init num_colors Fun.id)
    in
    let reconfigure =
      if own = [] then []
      else [ "reconfigure delay=" ^ String.concat "," own ]
    in
    Array.of_list (reconfigure @ lines)
  in
  { w; delta; num_colors; delay_bound; scripts = Array.map script instances }

let server_config t =
  {
    Server.default_config with
    n = t.w.n;
    delta = t.delta;
    delay = Array.make t.num_colors t.delay_bound;
  }

(* A connection's command source: session [k] of the connection is
   [PREFIX-k] and plays script [(first + k) mod pool]. *)
type feed = {
  prefix : string;
  first : int;
  scripts : string array array;
  mutable k : int;
  mutable pos : int;  (** next line of the script; -1 = [open] next *)
}

let feed (t : traffic) ~prefix ~first =
  { prefix; first; scripts = t.scripts; k = 0; pos = -1 }
let session_name f k = Printf.sprintf "%s-%d" f.prefix k

let next_line f =
  if f.pos < 0 then begin
    f.pos <- 0;
    "open " ^ session_name f f.k
  end
  else begin
    let script = f.scripts.((f.first + f.k) mod Array.length f.scripts) in
    let line = script.(f.pos) in
    f.pos <- f.pos + 1;
    if f.pos = Array.length script then begin
      f.k <- f.k + 1;
      f.pos <- -1
    end;
    line
  end

(* ---- server processes -------------------------------------------------- *)

let live = ref []

(* CPU the server processes are pinned to (with taskset), if any. *)
let server_cpu = ref None

let start_process prog args =
  let prog, args =
    match !server_cpu with
    | None -> (prog, args)
    | Some cpu -> ("taskset", Array.append [| "taskset"; "-c"; string_of_int cpu |] args)
  in
  let stdin_r, stdin_w = Unix.pipe ~cloexec:true () in
  let err =
    Unix.openfile "server.log"
      [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_APPEND; Unix.O_CLOEXEC ]
      0o644
  in
  let pid = Unix.create_process prog args stdin_r err err in
  List.iter Unix.close [ stdin_r; stdin_w; err ];
  live := pid :: !live;
  pid

let spawn ~rrs ~socket ~dir t =
  (try Sys.remove socket with Sys_error _ -> ());
  start_process rrs
    [|
      rrs;
      "serve";
      "--socket";
      socket;
      "--checkpoint-dir";
      dir;
      "--policy";
      "dlru-edf";
      "-n";
      string_of_int t.w.n;
      "--delta";
      string_of_int t.delta;
      "--colors";
      string_of_int t.num_colors;
      "--delay-bound";
      string_of_int t.delay_bound;
      (* overload control is not under test: keep it out of the way *)
      "--queue-limit";
      "65536";
      "--shed-threshold";
      "1048576";
    |]

let reap pid =
  ignore (Unix.waitpid [] pid);
  live := List.filter (( <> ) pid) !live

let kill pid =
  (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
  reap pid

let () = at_exit (fun () -> List.iter kill !live)

(* ---- client connections ------------------------------------------------ *)

type conn = {
  fd : Unix.file_descr;
  src : feed;
  ibuf : Bytes.t;
  mutable lo : int;
  mutable hi : int;
  mutable digest : int;  (** FNV-1a of every reply to a fed command *)
  mutable sent : int;  (** fed commands sent *)
  mutable failed : int;  (** [err] and [busy] replies *)
  mutable reads : int;
  mutable lines : int;  (** reply lines taken from [ibuf] *)
  stamps : int array;  (** ring of the outstanding commands' start times *)
  mutable s_head : int;
  mutable s_tail : int;
}

let fnv_basis = 0x0bf29ce484222325

let fnv h bytes lo hi =
  let h = ref h in
  for i = lo to hi - 1 do
    h := (!h lxor Char.code (Bytes.unsafe_get bytes i)) * 0x100000001b3
  done;
  !h

(* Connect as soon as the server listens: the retry interval is short
   so that the set-up time is the server's, not the client's. *)
let connect socket =
  let deadline = now () + 10_000_000_000 in
  let rec go () =
    let fd = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
    match Unix.connect fd (Unix.ADDR_UNIX socket) with
    | () -> fd
    | exception
        Unix.Unix_error ((Unix.ENOENT | Unix.ECONNREFUSED), _, _)
      when now () < deadline ->
        Unix.close fd;
        Unix.sleepf 0.00002;
        go ()
  in
  go ()

let fill c =
  if c.lo > 0 then begin
    Bytes.blit c.ibuf c.lo c.ibuf 0 (c.hi - c.lo);
    c.hi <- c.hi - c.lo;
    c.lo <- 0
  end;
  if c.hi = Bytes.length c.ibuf then failwith "reply line too long";
  let k = Unix.read c.fd c.ibuf c.hi (Bytes.length c.ibuf - c.hi) in
  if k = 0 then failwith (c.src.prefix ^ ": server closed the connection");
  c.reads <- c.reads + 1;
  c.hi <- c.hi + k

(* End of the next buffered line, or -1. *)
let line_end c =
  let rec go i =
    if i >= c.hi then -1 else if Bytes.get c.ibuf i = '\n' then i else go (i + 1)
  in
  go c.lo

let rec wait_line_end c =
  let e = line_end c in
  if e >= 0 then e
  else begin
    fill c;
    wait_line_end c
  end

let take_line c =
  let e = wait_line_end c in
  let line = Bytes.sub_string c.ibuf c.lo (e - c.lo) in
  c.lo <- e + 1;
  line

(* Record the reply ending at [e] and consume it.  Replies are folded
   into a hash rather than kept, so that recording neither allocates nor
   stalls the client while it is timing the server. *)
let record c e =
  (match Bytes.get c.ibuf c.lo with
  | 'e' | 'b' -> c.failed <- c.failed + 1
  | _ -> ());
  c.digest <- fnv c.digest c.ibuf c.lo (e + 1);
  c.lines <- c.lines + 1;
  c.lo <- e + 1

let write_all fd s =
  let len = String.length s in
  let rec go off =
    if off < len then go (off + Unix.write_substring fd s off (len - off))
  in
  go 0

let expect_prefix what prefix line =
  if not (String.starts_with ~prefix line) then
    failwith (Printf.sprintf "%s: expected %S..., got %S" what prefix line)

let new_conn ~socket src =
  {
    fd = connect socket;
    src;
    ibuf = Bytes.create 65536;
    lo = 0;
    hi = 0;
    digest = fnv_basis;
    sent = 0;
    failed = 0;
    reads = 0;
    lines = 0;
    stamps = Array.make 65536 0;
    s_head = 0;
    s_tail = 0;
  }

(* Connect and read the default-session greeting. *)
let open_conn ~socket src =
  let c = new_conn ~socket src in
  expect_prefix "greeting" "ok " (take_line c);
  c

let close_conn c = Unix.close c.fd

let push_stamp c t =
  if c.s_tail - c.s_head = Array.length c.stamps then
    failwith "too many commands in flight";
  c.stamps.(c.s_tail land (Array.length c.stamps - 1)) <- t;
  c.s_tail <- c.s_tail + 1

let pop_stamp c =
  let t = c.stamps.(c.s_head land (Array.length c.stamps - 1)) in
  c.s_head <- c.s_head + 1;
  t

let in_flight c = c.s_tail - c.s_head

(* Send the next [k] fed commands in one write, all stamped [t]. *)
let send_batch c k t =
  let b = Buffer.create (32 * k) in
  for _ = 1 to k do
    Buffer.add_string b (next_line c.src);
    Buffer.add_char b '\n';
    push_stamp c t
  done;
  c.sent <- c.sent + k;
  write_all c.fd (Buffer.contents b)

(* Wait up to [timeout] seconds for replies; call [on_reply c t e] for
   each complete reply line, [t] the instant its bytes were read. *)
let pump conns fds ~timeout on_reply =
  match Unix.select fds [] [] timeout with
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
  | readable, _, _ ->
      List.iter
        (fun fd ->
          let c = List.find (fun c -> c.fd == fd) conns in
          fill c;
          let t = now () in
          let rec drain () =
            let e = line_end c in
            if e >= 0 then begin
              on_reply c t e;
              drain ()
            end
          in
          drain ())
        readable

let drain_all conns on_reply =
  let fds = List.map (fun c -> c.fd) conns in
  let give_up = now () + 30_000_000_000 in
  while List.exists (fun c -> in_flight c > 0) conns do
    if now () > give_up then failwith "server stopped answering";
    pump conns fds ~timeout:1.0 on_reply
  done

(* ---- the floor -------------------------------------------------------------- *)

(* A fixed amount of work of the server's two kinds that shares no code
   with it: OCaml computation, and line appends to a file, flushed one
   by one like journal appends.  Contention on a shared machine slows
   system calls more than computation, so a floor of computation alone
   does not track the server's speed. *)
let cpu_work () =
  let t0 = now () in
  let tbl = Hashtbl.create 1024 in
  let b = Bytes.make 64 'x' in
  let acc = ref 0 in
  let oc = open_out "floor.log" in
  for i = 1 to 20_000 do
    Bytes.set b (i land 63) (Char.chr (i land 127));
    let h = fnv fnv_basis b 0 64 in
    Hashtbl.replace tbl (h land 1023) (string_of_int i);
    acc := !acc + String.length (Hashtbl.find tbl (h land 1023));
    if i land 1 = 0 then begin
      output_bytes oc b;
      output_char oc '\n';
      flush oc
    end
  done;
  close_out oc;
  ignore (Sys.opaque_identity !acc);
  now () - t0

(* The floor server, run by this executable in --echo mode on the
   servers' CPU: it echoes every byte back and does nothing else, except
   that a read of exactly "cpu\n" is answered with the nanoseconds
   [cpu_work] took there. *)
let echo_serve socket =
  (try Sys.remove socket with Sys_error _ -> ());
  let l = Unix.socket ~cloexec:true Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind l (Unix.ADDR_UNIX socket);
  Unix.listen l 16;
  let buf = Bytes.create 65536 in
  let rec put fd b off len =
    if off < len then put fd b (off + Unix.write fd b off (len - off)) len
  in
  let rec loop conns =
    let readable, _, _ = Unix.select (l :: conns) [] [] (-1.0) in
    let conns =
      List.filter
        (fun fd ->
          if not (List.memq fd readable) then true
          else
            match Unix.read fd buf 0 (Bytes.length buf) with
            | 0 | (exception Unix.Unix_error _) ->
                Unix.close fd;
                false
            | 4 when Bytes.sub_string buf 0 4 = "cpu\n" ->
                let r = Bytes.of_string (string_of_int (cpu_work ()) ^ "\n") in
                put fd r 0 (Bytes.length r);
                true
            | k ->
                put fd buf 0 k;
                true)
        conns
    in
    if List.memq l readable then
      loop (fst (Unix.accept ~cloexec:true l) :: conns)
    else loop conns
  in
  loop []

(* ---- load shapes ------------------------------------------------------- *)

(* Closed loop, one command in flight: the connections take turns, so
   that the server and its floor are measured at the same moments. *)
let lockstep pairs ~until =
  let k = ref 0 in
  while now () < until do
    let c, lat = pairs.(!k mod Array.length pairs) in
    incr k;
    let line = next_line c.src ^ "\n" in
    let t0 = now () in
    write_all c.fd line;
    let e = wait_line_end c in
    let t1 = now () in
    record c e;
    c.sent <- c.sent + 1;
    Vec.push lat (t1 - t0)
  done

(* Closed loop with [window] commands in flight per connection; a
   connection's refill goes out in one write after its replies are
   read.  Counts replies that arrive before [until]. *)
let windowed conns ~window ~until =
  let fds = List.map (fun c -> c.fd) conns in
  let done_ = ref 0 in
  let start = now () in
  List.iter (fun c -> send_batch c window start) conns;
  let on_reply c t e =
    record c e;
    ignore (pop_stamp c);
    if t < until then incr done_
  in
  while now () < until do
    pump conns fds ~timeout:1.0 on_reply;
    let t = now () in
    if t < until then
      List.iter
        (fun c ->
          let k = window - in_flight c in
          if k > 0 then send_batch c k t)
        conns
  done;
  drain_all conns on_reply;
  !done_

(* Open loop: command k is due at start + k/rate, sent on connection
   k mod |pairs|, and timed from its due instant, so a stall also delays
   the commands queued behind it.  The generator polls instead of
   sleeping when the next command is due within 200 us, because a timed
   sleep overshoots by about 50 us.  [late] gets how late each command
   was sent. *)
let fixed_rate pairs late ~rate ~until =
  let interval = 1e9 /. rate in
  let conns = Array.to_list (Array.map fst pairs) in
  let fds = List.map (fun c -> c.fd) conns in
  let on_reply c t e =
    record c e;
    match Array.find_opt (fun (c', _) -> c' == c) pairs with
    | Some (_, lat) -> Vec.push lat (t - pop_stamp c)
    | None -> assert false
  in
  let start = now () in
  let k = ref 0 in
  let due () = start + int_of_float (float_of_int !k *. interval) in
  while due () < until do
    while due () <= now () do
      let c, _ = pairs.(!k mod Array.length pairs) in
      let d = due () in
      send_batch c 1 d;
      Vec.push late (now () - d);
      incr k
    done;
    let wait = due () - now () in
    let timeout =
      if wait > 200_000 then float_of_int (wait - 100_000) *. 1e-9 else 0.0
    in
    pump conns fds ~timeout on_reply
  done;
  drain_all conns on_reply

(* ---- the reference ------------------------------------------------------ *)

(* Replay a connection's commands through an in-process host and
   compare the hash of its replies with the connection's. *)
let check_replies t h c =
  let src = feed t ~prefix:c.src.prefix ~first:c.src.first in
  let cur =
    ref
      (match Server.find_session h Server.default_session with
      | Some s -> s
      | None -> Server.open_session h Server.default_session)
  in
  let digest = ref fnv_basis in
  let hash l =
    let b = Bytes.of_string (l ^ "\n") in
    digest := fnv !digest b 0 (Bytes.length b)
  in
  for _ = 1 to c.sent do
    let line = next_line src in
    match Protocol.parse line with
    | Ok (Some cmd) -> (
        match Server.exec h !cur cmd with
        | Server.Reply [ l ] -> hash l
        | Server.Switch (s, [ l ]) ->
            cur := s;
            hash l
        | _ -> failwith ("reference: not one reply line to " ^ line))
    | _ -> failwith ("reference: unparsable command " ^ line)
  done;
  if !digest = c.digest then None
  else
    Some
      (Printf.sprintf
         "connection %s: the replies to its %d commands differ from the \
          reference"
         c.src.prefix c.sent)

(* ---- the traced replay --------------------------------------------------- *)

(* Time and minor words spent in one service layer. *)
type layer = { mutable ns : int; mutable words : float; mutable calls : int }

let layer () = { ns = 0; words = 0.; calls = 0 }

let span l f =
  let w0 = Gc.minor_words () in
  let t0 = now () in
  let r = f () in
  l.ns <- l.ns + (now () - t0);
  l.words <- l.words +. (Gc.minor_words () -. w0);
  l.calls <- l.calls + 1;
  r

let file_size path = try (Unix.stat path).Unix.st_size with Unix.Unix_error _ -> 0

(* Replay the kill/restore history through the service layers
   in-process, on durable sessions under [dir], with a checkpoint every
   256 ops as the server's default cadence does; then restore every
   session on a fresh host.  Each call into a layer is timed: parse,
   exec (whose self part, without the engine's apply, is the commit:
   journal append, counters and ack), apply, open, checkpoint and
   restore.  Returns the per-layer metrics and the per-command service
   times (parse + exec), sorted. *)
let traced_replay t ~dir =
  let config =
    { (server_config t) with checkpoint_dir = Some dir; checkpoint_every = 0 }
  in
  let h = Server.host config in
  let parse = layer () and exec = layer () and apply = layer () in
  let open_ = layer () and checkpoint = layer () and restore = layer () in
  let apply_op s op = span apply (fun () -> Server.apply_op s op) in
  let service = Vec.create () in
  let src = feed t ~prefix:"rs" ~first:0 in
  let names = List.init t.w.restore_sessions (session_name src) in
  let cur = ref (Server.open_session h Server.default_session) in
  let cmds = ref 0 in
  while src.k < t.w.restore_sessions do
    let line = next_line src in
    incr cmds;
    let t0 = now () in
    let cmd =
      match span parse (fun () -> Protocol.parse line) with
      | Ok (Some cmd) -> cmd
      | _ -> failwith ("replay: unparsable command " ^ line)
    in
    let ops = apply.calls in
    let l = match cmd with Protocol.Open _ -> open_ | _ -> exec in
    (match span l (fun () -> Server.exec ~apply:apply_op h !cur cmd) with
    | Server.Reply [ r ] when r.[0] <> 'e' && r.[0] <> 'b' -> ()
    | Server.Switch (s, _) -> cur := s
    | _ -> failwith ("replay: command refused: " ^ line));
    Vec.push service (now () - t0);
    if apply.calls > ops && Server.session_ops !cur mod 256 = 0 then
      ignore (span checkpoint (fun () -> Server.checkpoint_session h !cur))
  done;
  let expected =
    List.map
      (fun n -> Server.session_snapshot (Option.get (Server.find_session h n)))
      names
  in
  List.iter (Server.abandon_session h) (Server.sessions h);
  let h2 = Server.host config in
  let restored = span restore (fun () -> List.map (Server.open_session h2) names) in
  List.iter2
    (fun want s ->
      if not (Rrs_service.Snapshot.equal want (Server.session_snapshot s)) then
        failwith "replay: a restored state differs from the replayed one")
    expected restored;
  let sum f = List.fold_left (fun a n -> a + f n) 0 names in
  let size n file =
    file_size (Filename.concat (Filename.concat (Filename.concat dir "sessions") n) file)
  in
  let ops = apply.calls in
  let per x k = x /. float_of_int (max 1 k) in
  let ns l k = per (float_of_int l.ns) k in
  ( [
      ("parse_ns_per_cmd", ns parse !cmds, "ns");
      ("apply_ns_per_op", ns apply ops, "ns");
      ("commit_ns_per_op", per (float_of_int (exec.ns - apply.ns)) ops, "ns");
      ("open_us_per_session", ns open_ open_.calls /. 1000., "us");
      ("checkpoint_us_per_commit", ns checkpoint checkpoint.calls /. 1000., "us");
      ("restore_ns_per_op", ns restore ops, "ns");
      ("parse_words_per_cmd", per parse.words !cmds, "words");
      ("apply_words_per_op", per apply.words ops, "words");
      ("commit_words_per_op", per (exec.words -. apply.words) ops, "words");
      ("restore_words_per_op", per restore.words ops, "words");
      ( "journal_bytes_per_op",
        per (float_of_int (sum (fun n -> size n "journal.jsonl"))) ops,
        "bytes" );
      ( "checkpoint_bytes",
        per (float_of_int (sum (fun n -> size n "checkpoint.json"))) (List.length names),
        "bytes" );
    ],
    Vec.sorted service )

(* ---- one run ------------------------------------------------------------- *)

let rec rm_rf path =
  match Unix.lstat path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()
  | { Unix.st_kind = Unix.S_DIR; _ } ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Unix.rmdir path
  | _ -> Sys.remove path

let us ns = float_of_int ns /. 1000.

let rounds = 12

(* Spawn a server on a fresh directory and time it until it greets a
   client, then shut it down. *)
let setup_sample ~rrs t i =
  let dir = Printf.sprintf "setup-%d" i in
  let t0 = now () in
  let pid = spawn ~rrs ~socket:"u.sock" ~dir t in
  let ic = Unix.in_channel_of_descr (connect "u.sock") in
  let greeting = In_channel.input_line ic in
  let t1 = now () in
  (match greeting with
  | Some g -> expect_prefix "set-up greeting" "ok session policy=" g
  | None -> failwith "set-up: no greeting");
  write_all (Unix.descr_of_in_channel ic) "shutdown\n";
  (try
     while In_channel.input_line ic <> None do
       ()
     done
   with Sys_error _ -> ());
  In_channel.close ic;
  reap pid;
  rm_rf dir;
  float_of_int (t1 - t0) *. 1e-9

(* The same for the echo server: how much of a set-up sample is the
   process start and the connect, which are not the server's. *)
let setup_floor_sample () =
  let t0 = now () in
  let pid =
    start_process Sys.executable_name [| Sys.executable_name; "--echo"; "v.sock" |]
  in
  let fd = connect "v.sock" in
  write_all fd "x\n";
  let b = Bytes.create 2 in
  let rec get off = if off < 2 then get (off + Unix.read fd b off (2 - off)) in
  get 0;
  let t1 = now () in
  Unix.close fd;
  kill pid;
  float_of_int (t1 - t0) *. 1e-9

(* Restart a server on the kill/restore directory and time reopening
   every session of the history, in nanoseconds; each state must be the
   state before the kill. *)
let restore_sample ~rrs t ~names ~before =
  let pid = spawn ~rrs ~socket:"r.sock" ~dir:"restore" t in
  let ic = Unix.in_channel_of_descr (connect "r.sock") in
  let fd = Unix.descr_of_in_channel ic in
  let line () =
    match In_channel.input_line ic with
    | Some l -> l
    | None -> failwith "restore: server closed the connection"
  in
  expect_prefix "restart greeting" "ok restored round=0 ops=0" (line ());
  let t0 = now () in
  write_all fd
    (String.concat "" (List.map (fun n -> "open " ^ n ^ "\nstate\n") names));
  let replies =
    List.map
      (fun n ->
        let greeting = line () in
        (n, greeting, line ()))
      names
  in
  let t1 = now () in
  List.iter2
    (fun (n, greeting, after) before ->
      expect_prefix "restore" ("ok restored name=" ^ n ^ " ") greeting;
      if not (String.equal after before) then
        failwith
          (Printf.sprintf "restore: %s state %S, before the kill %S" n after
             before))
    replies before;
  In_channel.close ic;
  kill pid;
  float_of_int (t1 - t0)

let run ~rrs ~w ~seed ~seconds ~trace =
  let t_start = now () in
  let t = traffic w ~seed in
  let lines =
    Array.fold_left (fun a s -> a + Array.length s) 0 t.scripts
    / Array.length t.scripts
  in
  (* the kill/restore history: [restore_sessions] whole scripts,
     pipelined into their own server, which is then SIGKILLed *)
  let rpid = spawn ~rrs ~socket:"r.sock" ~dir:"restore" t in
  let rs = open_conn ~socket:"r.sock" (feed t ~prefix:"rs" ~first:0) in
  let names = List.init w.restore_sessions (session_name rs.src) in
  let on_reply c _ e =
    record c e;
    ignore (pop_stamp c)
  in
  while rs.src.k < w.restore_sessions do
    if in_flight rs < 16 then send_batch rs 1 0
    else pump [ rs ] [ rs.fd ] ~timeout:1.0 on_reply
  done;
  drain_all [ rs ] on_reply;
  let before =
    List.map
      (fun n ->
        write_all rs.fd ("attach " ^ n ^ "\nstate\n");
        expect_prefix "attach" "ok attached" (take_line rs);
        take_line rs)
      names
  in
  close_conn rs;
  kill rpid;
  (* the load server, one connection per client, each with its own
     sessions *)
  let pid = spawn ~rrs ~socket:"s.sock" ~dir:"state" t in
  let conns prefix k =
    List.init k (fun i ->
        open_conn ~socket:"s.sock"
          (feed t ~prefix:(Printf.sprintf "%s%d" prefix i) ~first:i))
  in
  let ls = List.hd (conns "ls" 1) and fr = conns "fr" 4 and wd = conns "wd" 4 in
  (* the floor: the same load shapes against the echo server *)
  let epid =
    start_process Sys.executable_name
      [| Sys.executable_name; "--echo"; "e.sock" |]
  in
  let floor k =
    List.init k (fun i ->
        new_conn ~socket:"e.sock"
          (feed t ~prefix:(Printf.sprintf "floor%d" i) ~first:i))
  in
  let fls = List.hd (floor 1) and ffr = floor 4 in
  (* The machine's speed drifts by tens of percent within a second, so
     every end-to-end metric but the set-up time is a ratio to a floor
     measured at the same moments: latency to the echo server's latency,
     with requests to the two alternating, and server CPU work to
     [cpu_work] timed on the server's CPU just before and after it.
     Rounds interleave the load shapes with the set-up and restore
     samples. *)
  let cpu_floor () =
    write_all fls.fd "cpu\n";
    float_of_string (take_line fls)
  in
  let slice = int_of_float (seconds /. float_of_int (3 * rounds) *. 1e9) in
  let burst = 25_000_000 in
  let ls_lat = Vec.create () and fls_lat = Vec.create () in
  let fr_lat = Vec.create () and ffr_lat = Vec.create () in
  let fr_late = Vec.create () in
  let wd_done = ref 0 and wd_ns = ref 0 and wd_ratios = ref [] in
  let fr_rates = Array.make rounds 0. in
  let setups = Array.make rounds 0. and setup_floors = Array.make rounds 0. in
  let restores = Array.make rounds 0. in
  let restore_ratios = Array.make rounds 0. in
  let ls_p50_ratios = Array.make rounds 0. and ls_mean_ratios = Array.make rounds 0. in
  let fr_p50_ratios = Array.make rounds 0. in
  (* a round's ratio of [v] to its floor [f]: the samples since [v0]
     and [f0] *)
  let round_ratio stat v v0 f f0 =
    stat (Vec.sorted ~from:v0 v) /. stat (Vec.sorted ~from:f0 f)
  in
  let ls_pairs = [| (ls, ls_lat); (fls, fls_lat) |] in
  let fr_pairs =
    Array.of_list
      (List.concat (List.map2 (fun c f -> [ (c, fr_lat); (f, ffr_lat) ]) fr ffr))
  in
  for r = 0 to rounds - 1 do
    setups.(r) <- setup_sample ~rrs t r;
    setup_floors.(r) <- setup_floor_sample ();
    let c0 = cpu_floor () in
    restores.(r) <- restore_sample ~rrs t ~names ~before;
    let c1 = cpu_floor () in
    restore_ratios.(r) <- restores.(r) /. (0.5 *. (c0 +. c1));
    let v0 = ls_lat.n and f0 = fls_lat.n in
    lockstep ls_pairs ~until:(now () + slice);
    ls_p50_ratios.(r) <- round_ratio p50 ls_lat v0 fls_lat f0;
    ls_mean_ratios.(r) <- round_ratio mean ls_lat v0 fls_lat f0;
    let until = now () + slice in
    let round_done = ref 0 and round_ns = ref 0 in
    let c0 = ref (cpu_floor ()) in
    while now () < until do
      let t0 = now () in
      let n = windowed wd ~window:16 ~until:(t0 + burst) in
      let c1 = cpu_floor () in
      round_done := !round_done + n;
      round_ns := !round_ns + burst;
      (* the floor, timed just before and just after the burst *)
      wd_ratios :=
        (float_of_int n /. (float_of_int burst *. 1e-9)
        *. (0.5 *. (!c0 +. c1) *. 1e-9))
        :: !wd_ratios;
      c0 := c1
    done;
    wd_done := !wd_done + !round_done;
    wd_ns := !wd_ns + !round_ns;
    (* the server gets [open_loop_load] of the windowed throughput just
       measured, and the echo server as many commands again *)
    let throughput = float_of_int !round_done /. (float_of_int !round_ns *. 1e-9) in
    fr_rates.(r) <- open_loop_load *. throughput;
    let v0 = fr_lat.n and f0 = ffr_lat.n in
    fixed_rate fr_pairs fr_late ~rate:(2. *. fr_rates.(r)) ~until:(now () + slice);
    fr_p50_ratios.(r) <- round_ratio p50 fr_lat v0 ffr_lat f0
  done;
  let ls_lat = Vec.sorted ls_lat and fls_lat = Vec.sorted fls_lat in
  let fr_lat = Vec.sorted fr_lat and ffr_lat = Vec.sorted ffr_lat in
  List.iter close_conn (fls :: ffr);
  kill epid;
  let all = (ls :: fr) @ wd in
  List.iter close_conn all;
  kill pid;
  let t_load = now () in
  (* correctness: every reply against the in-process reference *)
  let h = Server.host (server_config t) in
  let problems = ref (List.filter_map (check_replies t h) (rs :: all)) in
  List.iter2
    (fun n before ->
      let want =
        Rrs_service.Snapshot.to_line
          (Server.session_snapshot (Option.get (Server.find_session h n)))
      in
      if not (String.equal want before) then
        problems :=
          Printf.sprintf "session %s: state %S, reference %S" n before want
          :: !problems)
    names before;
  let attempted =
    List.fold_left (fun a c -> a + c.sent) (2 * rounds) (rs :: all)
  in
  let failed = List.fold_left (fun a c -> a + c.failed) 0 (rs :: all) in
  if failed > 0 then
    problems := Printf.sprintf "%d commands refused" failed :: !problems;
  let pooled v q = us (quantile v q) in
  let metrics =
    if not trace then
      [
        ("lockstep_p50_vs_floor", median_float ls_p50_ratios, "x");
        ("lockstep_mean_vs_floor", median_float ls_mean_ratios, "x");
        ("fixed_rate_p50_vs_floor", median_float fr_p50_ratios, "x");
        ( "windowed_cmds_per_cpu_floor",
          median_float (Array.of_list !wd_ratios),
          "x" );
        ("restore_vs_cpu_floor", median_float restore_ratios, "x");
        ("setup_s", median_float setups, "s");
      ]
    else begin
      let layers, service =
        traced_replay t ~dir:"replay"
      in
      let wd_reads = List.fold_left (fun a c -> a + c.reads) 0 wd in
      let wd_lines = List.fold_left (fun a c -> a + c.lines) 0 wd in
      [
        ("lockstep_p50_us", pooled ls_lat 0.5, "us");
        ("lockstep_p99_us", pooled ls_lat 0.99, "us");
        ("fixed_rate_p50_us", pooled fr_lat 0.5, "us");
        ("fixed_rate_p99_us", pooled fr_lat 0.99, "us");
        ("fixed_rate_cmds_per_s", median_float fr_rates, "1/s");
        ( "windowed_ops_per_s",
          float_of_int !wd_done /. (float_of_int !wd_ns *. 1e-9),
          "1/s" );
        ("restore_ms", median_float restores /. 1e6, "ms");
        ("setup_floor_s", median_float setup_floors, "s");
        ("floor_lockstep_p50_us", pooled fls_lat 0.5, "us");
        ("floor_fixed_rate_p50_us", pooled ffr_lat 0.5, "us");
        ( "transport_us_per_cmd",
          pooled ls_lat 0.5 -. us (quantile service 0.5),
          "us" );
        ( "windowed_replies_per_read",
          float_of_int wd_lines /. float_of_int (max 1 wd_reads),
          "count" );
        ("generator_late_p99_us", pooled (Vec.sorted fr_late) 0.99, "us");
      ]
      @ layers
    end
  in
  log "%s seed %d: %d commands (lockstep %d, fixed-rate %d, windowed %d), \
       scripts of %d lines, %d restores of %d sessions; %.1f s measuring, \
       %.1f s checking"
    w.name seed attempted ls.sent
    (List.fold_left (fun a c -> a + c.sent) 0 fr)
    (List.fold_left (fun a c -> a + c.sent) 0 wd)
    lines rounds w.restore_sessions
    (float_of_int (t_load - t_start) *. 1e-9)
    (float_of_int (now () - t_load) *. 1e-9);
  List.iter rm_rf [ "state"; "restore"; "replay" ];
  List.iter (fun m -> log "INCORRECT: %s" m) (List.rev !problems);
  Json.Assoc
    [
      ("correct", Json.Bool (!problems = []));
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ( "metrics",
        Json.Assoc
          (List.map
             (fun (name, value, unit) ->
               ( name,
                 Json.Assoc
                   [ ("value", Json.Float value); ("unit", Json.String unit) ] ))
             metrics) );
    ]

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 10. in
  let trace = ref 0 and rrs = ref "" and work = ref "" and echo = ref "" in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "NAME  workload");
      ("--seed", Arg.Set_int seed, "N  input seed");
      ("--seconds", Arg.Set_float seconds, "S  measured seconds");
      ("--trace", Arg.Set_int trace, "0|1  per-layer replay instead");
      ("--rrs", Arg.Set_string rrs, "PATH  the rrs executable");
      ("--work", Arg.Set_string work, "DIR  scratch directory (emptied)");
      ( "--server-cpu",
        Arg.Int (fun c -> server_cpu := Some c),
        "N  pin server processes to this CPU (with taskset)" );
      ("--echo", Arg.Set_string echo, "SOCKET  run the echo floor server");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1 --rrs PATH \
     --work DIR";
  if !echo <> "" then echo_serve !echo;
  match List.find_opt (fun w -> w.name = !workload) workloads with
  | None ->
      log "unknown workload %S (known: %s)" !workload
        (String.concat ", " (List.map (fun w -> w.name) workloads));
      exit 2
  | Some w ->
      if !rrs = "" || !work = "" then begin
        log "--rrs and --work are required";
        exit 2
      end;
      let rrs =
        if Filename.is_relative !rrs then Filename.concat (Sys.getcwd ()) !rrs
        else !rrs
      in
      rm_rf !work;
      Unix.mkdir !work 0o755;
      Sys.chdir !work;
      let result = run ~rrs ~w ~seed:!seed ~seconds:!seconds ~trace:(!trace = 1) in
      print_endline (Json.to_string result)
