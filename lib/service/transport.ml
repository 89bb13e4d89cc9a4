module Metrics = Rrs_obs.Metrics

type address =
  | Unix_socket of string
  | Tcp of string * int
  | Stdio of Unix.file_descr * Unix.file_descr

let pp_address ppf = function
  | Unix_socket path -> Format.fprintf ppf "unix:%s" path
  | Tcp (host, port) -> Format.fprintf ppf "tcp:%s:%d" host port
  | Stdio _ -> Format.pp_print_string ppf "stdio"

type limits = {
  max_conns : int;
  queue_limit : int;
  shed_threshold : int;
  command_deadline : float option;
  write_buffer_limit : int;
  write_stall_timeout : float;
  max_line : int;
  retry_after : float;
}

let default_limits =
  {
    max_conns = 64;
    queue_limit = 64;
    shed_threshold = 256;
    command_deadline = None;
    write_buffer_limit = 1 lsl 20;
    write_stall_timeout = 5.0;
    max_line = 1 lsl 16;
    retry_after = 0.05;
  }

type stats = {
  conns_accepted : int;
  conns_dropped : int;
  commands : int;
  busy : int;
  shed : int;
  slow_drops : int;
  wedges : int;
  select_rounds : int;
}

(* One client connection.  Outbound bytes accumulate in
   [out.[0 .. out_len)] and are written from [out_pos]: at once when a
   socket connection's command queue is empty, otherwise whenever
   select says the peer can take them.  The pending bytes
   [out.[out_pos .. out_len)] are the backpressure boundary the
   slow-client policy measures.  A socket reads and writes one
   [fd]; the stdio connection reads [fd] and writes [wfd], and is
   [paced]: it takes its next command only once the last one ran and
   its reply was written.

   A line answered at read time ([err] for a bad line, [busy queue] at
   admission) while commands are still queued waits in the queue behind
   them, so replies keep the order of the lines. *)
type queued = Command of Protocol.command | Answered of string

type conn = {
  fd : Unix.file_descr;
  wfd : Unix.file_descr;
  paced : bool;
  pending : Buffer.t;  (** unread partial input line *)
  cmds : queued Queue.t;
  mutable depth : int;  (** the [Command]s in [cmds] *)
  mutable held : int;
      (** bytes of the [Answered] replies in [cmds]: output not yet in
          [out], counted against [write_buffer_limit] like pending bytes *)
  mutable out : Bytes.t;
  mutable out_len : int;
  mutable out_pos : int;
  mutable sname : string;  (** current session, resolved by name *)
  mutable closing : bool;  (** close once [out] is drained *)
  mutable last_progress : float;  (** last instant the peer took bytes *)
}

let out_pending c = c.out_len - c.out_pos

(* a paced connection may take its next command *)
let settled c = Queue.is_empty c.cmds && out_pending c = 0

let append c line =
  let len = String.length line in
  if c.out_len + len + 1 > Bytes.length c.out && c.out_pos > 0 then begin
    (* drop the sent prefix before growing: the buffer holds only what
       the peer has not taken yet *)
    let pending = out_pending c in
    Bytes.blit c.out c.out_pos c.out 0 pending;
    c.out_len <- pending;
    c.out_pos <- 0
  end;
  let need = c.out_len + len + 1 in
  if need > Bytes.length c.out then begin
    let grown = Bytes.create (max need (2 * Bytes.length c.out)) in
    Bytes.blit c.out 0 grown 0 c.out_len;
    c.out <- grown
  end;
  Bytes.blit_string line 0 c.out c.out_len len;
  Bytes.set c.out (c.out_len + len) '\n';
  c.out_len <- need

(* Unix.select takes only descriptors below FD_SETSIZE; anything above
   makes the whole call fail with EINVAL. *)
let selectable fd =
  match Unix.select [] [ fd ] [] 0.0 with
  | _ -> true
  | exception Unix.Unix_error (Unix.EINVAL, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* The [serve_*] counters the loop updates, resolved once per run. *)
type counters = {
  commands : Metrics.counter;
  busy : Metrics.counter;
  shed : Metrics.counter;
  conns_accepted : Metrics.counter;
  conns_dropped : Metrics.counter;
  slow_drops : Metrics.counter;
  command_faults : Metrics.counter;
  write_faults : Metrics.counter;
  accept_faults : Metrics.counter;
  wedged : Metrics.counter;
  select_rounds : Metrics.counter;
}

let counters m =
  let c = Metrics.counter m in
  {
    commands = c "serve_commands";
    busy = c "serve_busy";
    shed = c "serve_shed";
    conns_accepted = c "serve_conns_accepted";
    conns_dropped = c "serve_conns_dropped";
    slow_drops = c "serve_slow_client_drops";
    command_faults = c "serve_command_faults";
    write_faults = c "serve_write_faults";
    accept_faults = c "serve_accept_faults";
    wedged = c "serve_wedged";
    select_rounds = c "serve_select_rounds";
  }

let validate (config : Server.config) =
  match Server.factory_of_id config.policy with
  | Error e -> Error e
  | Ok _ ->
      if Array.length config.delay > Rrs_core.Packed.max_colors then
        Error
          (Printf.sprintf "%d colors exceed the packed color field (max %d)"
             (Array.length config.delay) Rrs_core.Packed.max_colors)
      else if config.checkpoint_every < 0 then
        Error "checkpoint-every must be non-negative"
      else if config.n < 1 then Error "n must be at least 1"
      else (
        match
          Rrs_core.Instance.create ~delta:config.delta
            ~delay:(Array.copy config.delay) ~arrivals:[] ()
        with
        | _ -> Ok ()
        | exception Invalid_argument msg -> Error msg)

let bind_listener address =
  match address with
  | Stdio _ -> (None, address)
  | Unix_socket path ->
      if Sys.file_exists path then Sys.remove path;
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      (Some fd, Unix_socket path)
  | Tcp (host, port) ->
      let inet =
        try Unix.inet_addr_of_string host
        with _ -> (Unix.gethostbyname host).Unix.h_addr_list.(0)
      in
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Unix.ADDR_INET (inet, port));
      Unix.listen fd 64;
      Unix.set_nonblock fd;
      let bound =
        match Unix.getsockname fd with
        | Unix.ADDR_INET (_, p) -> Tcp (host, p)
        | _ -> Tcp (host, port)
      in
      (Some fd, bound)

let run ?(limits = default_limits) ?(stop = fun () -> false) ?on_ready
    (config : Server.config) address =
  match validate config with
  | Error e -> Error (`Config e)
  | Ok () -> (
      match bind_listener address with
      | exception Unix.Unix_error (err, fn, arg) ->
          Error
            (`Config
              (Printf.sprintf "bind %s: %s(%s): %s"
                 (Format.asprintf "%a" pp_address address)
                 fn arg (Unix.error_message err)))
      | exception e ->
          Error
            (`Config
              (Printf.sprintf "bind %s: %s"
                 (Format.asprintf "%a" pp_address address)
                 (Printexc.to_string e)))
      | listener, bound ->
          (* a peer that closed mid-reply must be an EPIPE we contain,
             not a process-killing SIGPIPE *)
          let old_sigpipe =
            try Some (Sys.signal Sys.sigpipe Sys.Signal_ignore)
            with Invalid_argument _ -> None
          in
          let restore_sigpipe () =
            match old_sigpipe with
            | Some d -> ( try Sys.set_signal Sys.sigpipe d with _ -> ())
            | None -> ()
          in
          Fun.protect ~finally:restore_sigpipe @@ fun () ->
          let h = Server.host config in
          let ctr = counters (Server.metrics h) in
          let inc c = Metrics.inc c 1 in
          Option.iter (fun f -> f bound) on_ready;
          let conns = ref [] in
          let queued = ref 0 in  (* commands queued over all connections *)
          let shutting = ref false in
          let now () = Unix.gettimeofday () in
          let drop ?(slow = false) c =
            (* ending the stdio connection stops the server; its
               descriptors belong to the caller.  A socket connection
               leaves its session, unless the server is stopping: the
               drain closes every session with a checkpoint anyway *)
            if c.paced then shutting := true
            else begin
              (try Unix.close c.fd with Unix.Unix_error _ -> ());
              if not !shutting then
                Option.iter (Server.leave h) (Server.find_session h c.sname)
            end;
            conns := List.filter (fun c' -> c' != c) !conns;
            queued := !queued - c.depth;
            Queue.clear c.cmds;
            c.depth <- 0;
            c.held <- 0;
            inc ctr.conns_dropped;
            if slow then inc ctr.slow_drops
          in
          (* ---- session routing ------------------------------------ *)
          let resolve c =
            match Server.find_session h c.sname with
            | Some s when Server.session_wedged s = None -> Ok s
            | _ ->
                (* not open yet, or wedged by an earlier fault: the next
                   command restores it from its journal *)
                Server.try_open h c.sname
          in
          let session_depth sname =
            List.fold_left
              (fun acc c ->
                if c.sname = sname then acc + c.depth else acc)
              0 !conns
          in
          (* a command deadline stops a [step] at a round boundary *)
          let apply =
            match limits.command_deadline with
            | None -> Server.apply_op
            | Some t -> Server.apply_within t
          in
          let shed_guard cmd =
            if !queued > limits.shed_threshold then begin
              inc ctr.shed;
              Some
                (Printf.sprintf "busy shed %s queued=%d retry-after=%g"
                   (Protocol.command_to_string cmd)
                   !queued limits.retry_after)
            end
            else None
          in
          let wedge_current c reason =
            Option.iter
              (fun s -> Server.wedge s reason)
              (Server.find_session h c.sname)
          in
          let execute c cmd =
            inc ctr.commands;
            let run () =
              match resolve c with
              | Error d -> Server.Reply [ "err " ^ d ]
              | Ok s ->
                  Rrs_fault.probe "serve.command";
                  Server.exec ~apply h s cmd
            in
            match
              match cmd with
              | Protocol.State | Protocol.Sessions | Protocol.Help -> (
                  (* shed read-only work before it starves mutations *)
                  match shed_guard cmd with
                  | Some busy -> Server.Reply [ busy ]
                  | None -> run ())
              | _ -> run ()
            with
            | Server.Reply lines -> List.iter (append c) lines
            | Server.Switch (s, lines) ->
                c.sname <- Server.session_name s;
                List.iter (append c) lines
            | Server.Stop lines ->
                List.iter (append c) lines;
                shutting := true
            | Server.Bye lines ->
                List.iter (append c) lines;
                c.closing <- true
            | exception Rrs_fault.Injected { point; hit; transient } ->
                (* [serve.command] fires before any mutation: contained
                   to an error reply, the loop and the session live on.
                   A fault from inside the command ([serve.journal])
                   struck after the apply: the session no longer
                   matches its journal, so it is wedged and the next
                   command restores it *)
                inc ctr.command_faults;
                if point <> "serve.command" then
                  wedge_current c ("fault injected at " ^ point);
                append c
                  (Printf.sprintf
                     "err transient fault injected at %s (hit %d, %s)" point
                     hit
                     (if transient then "transient" else "fatal"))
            | exception e ->
                (* unknown failure mid-command: the session may be
                   half-mutated, so it is wedged like a faulted one *)
                inc ctr.command_faults;
                append c ("err " ^ Printexc.to_string e);
                wedge_current c (Printexc.to_string e)
          in
          (* the next queued command, then the replies of the lines
             answered behind it *)
          let execute_next c =
            let rec pass_answers () =
              match Queue.peek_opt c.cmds with
              | Some (Answered line) ->
                  ignore (Queue.pop c.cmds);
                  c.held <- c.held - String.length line - 1;
                  append c line;
                  pass_answers ()
              | Some (Command _) | None -> ()
            in
            (match Queue.pop c.cmds with
            | Command cmd ->
                decr queued;
                c.depth <- c.depth - 1;
                execute c cmd
            | Answered line -> append c line);
            pass_answers ()
          in
          let answer c line =
            if Queue.is_empty c.cmds then append c line
            else begin
              Queue.push (Answered line) c.cmds;
              c.held <- c.held + String.length line + 1
            end
          in
          (* ---- input parsing -------------------------------------- *)
          let process_line c line =
            match Protocol.parse line with
            | Ok None -> ()
            | Error e -> answer c ("err " ^ e)
            | Ok (Some cmd) ->
                let depth = session_depth c.sname in
                if depth >= limits.queue_limit then begin
                  (* refuse at admission: nothing enqueued, nothing
                     acked, the client owns the retry *)
                  inc ctr.busy;
                  answer c
                    (Printf.sprintf
                       "busy queue session=%s depth=%d retry-after=%g"
                       c.sname depth limits.retry_after)
                end
                else begin
                  Queue.push (Command cmd) c.cmds;
                  c.depth <- c.depth + 1;
                  incr queued
                end
          in
          (* one read buffer for the whole loop; a read's complete lines
             are cut straight out of it, only a partial last line is
             carried over in the connection's [pending].  The stdio
             connection is the loop's only one, so the lines of its
             read it has not taken yet can wait in [rbuf.[!held ..
             !held_end)] *)
          let rbuf = Bytes.create 4096 in
          let held = ref 0 and held_end = ref 0 in
          let rec newline_in i stop =
            if i >= stop then -1
            else if Bytes.unsafe_get rbuf i = '\n' then i
            else newline_in (i + 1) stop
          in
          (* cut [rbuf.[start .. stop)] into commands; returns where it
             stopped, which is before [stop] only for a paced
             connection that is not [settled] *)
          let rec cut c start stop =
            if c.paced && not (settled c) then start
            else
              let i = newline_in start stop in
              if i < 0 then begin
                Buffer.add_subbytes c.pending rbuf start (stop - start);
                if Buffer.length c.pending > limits.max_line then begin
                  append c
                    (Printf.sprintf "err line longer than %d bytes"
                       limits.max_line);
                  c.closing <- true;
                  Buffer.reset c.pending
                end;
                stop
              end
              else begin
                let line =
                  if Buffer.length c.pending = 0 then
                    Bytes.sub_string rbuf start (i - start)
                  else begin
                    Buffer.add_subbytes c.pending rbuf start (i - start);
                    let line = Buffer.contents c.pending in
                    Buffer.clear c.pending;
                    line
                  end
                in
                if not c.closing then process_line c line;
                cut c (i + 1) stop
              end
          in
          (* ---- connection IO -------------------------------------- *)
          let read_conn c =
            match Unix.read c.fd rbuf 0 (Bytes.length rbuf) with
            | 0 when c.paced ->
                (* stdin EOF: a final unterminated line still counts;
                   then stop like [shutdown], whose drain runs what is
                   queued *)
                if Buffer.length c.pending > 0 then begin
                  let line = Buffer.contents c.pending in
                  Buffer.clear c.pending;
                  process_line c line
                end;
                shutting := true
            | 0 -> drop c (* orderly EOF: abrupt from our side of acks *)
            | len ->
                let stop = cut c 0 len in
                if stop < len then begin
                  held := stop;
                  held_end := len
                end
            | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _)
              ->
                ()
            | exception Unix.Unix_error _ -> drop c
          in
          let write_conn c =
            match Rrs_fault.probe "serve.write" with
            | exception Rrs_fault.Injected _ ->
                inc ctr.write_faults;
                drop c
            | () -> (
                (* the stdio descriptors stay blocking (they share their
                   open file description with the parent shell): once
                   select says writable, a pipe takes PIPE_BUF bytes
                   without blocking *)
                let chunk = if c.paced then 4096 else 16384 in
                match
                  Unix.single_write c.wfd c.out c.out_pos
                    (min (out_pending c) chunk)
                with
                | written ->
                    c.out_pos <- c.out_pos + written;
                    if written > 0 then c.last_progress <- now ();
                    if c.out_pos >= c.out_len then begin
                      c.out_len <- 0;
                      c.out_pos <- 0;
                      if c.closing then drop c
                    end
                | exception
                    Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                    ()
                | exception Unix.Unix_error _ -> drop c)
          in
          let new_conn ?(paced = false) fd wfd =
            inc ctr.conns_accepted;
            {
              fd;
              wfd;
              paced;
              pending = Buffer.create 64;
              cmds = Queue.create ();
              depth = 0;
              held = 0;
              out = Bytes.create 256;
              out_len = 0;
              out_pos = 0;
              sname = Server.default_session;
              closing = false;
              last_progress = now ();
            }
          in
          (* greet a new connection with its first session; [Some diag]
             when that session cannot be opened *)
          let greet c =
            match resolve c with
            | Ok s ->
                List.iter (append c) (Server.greeting s);
                None
            | Error d ->
                c.closing <- true;
                Some d
          in
          let accept_conn listener =
            match Rrs_fault.probe "serve.accept" with
            | exception Rrs_fault.Injected _ -> (
                inc ctr.accept_faults;
                (* still drain the pending connection so the backlog
                   cannot fill with a poisoned accept *)
                match Unix.accept listener with
                | fd, _ -> ( try Unix.close fd with Unix.Unix_error _ -> ())
                | exception Unix.Unix_error _ -> ())
            | () -> (
                match Unix.accept listener with
                | exception
                    Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK), _, _) ->
                    ()
                | exception Unix.Unix_error _ -> ()
                | fd, _ when not (selectable fd) ->
                    (* every open durable session holds its journal fd,
                       so a busy server can hand out descriptors select
                       cannot watch: refuse right here, with one
                       best-effort write, instead of queueing the
                       connection *)
                    inc ctr.conns_accepted;
                    inc ctr.busy;
                    let line =
                      Printf.sprintf
                        "busy connections fd-limit retry-after=%g\n"
                        limits.retry_after
                    in
                    (try
                       Unix.set_nonblock fd;
                       ignore
                         (Unix.write_substring fd line 0 (String.length line))
                     with Unix.Unix_error _ -> ());
                    (try Unix.close fd with Unix.Unix_error _ -> ());
                    inc ctr.conns_dropped
                | fd, _ ->
                    Unix.set_nonblock fd;
                    let c = new_conn fd fd in
                    if List.length !conns >= limits.max_conns then begin
                      inc ctr.busy;
                      append c
                        (Printf.sprintf
                           "busy connections limit=%d retry-after=%g"
                           limits.max_conns limits.retry_after);
                      c.closing <- true
                    end
                    else
                      Option.iter (fun d -> append c ("err " ^ d)) (greet c);
                    conns := !conns @ [ c ])
          in
          (* the stdio connection exists from the start; when its
             session cannot be opened the server has nothing to serve *)
          let stdio, fatal =
            match address with
            | Stdio (fd, wfd) ->
                let c = new_conn ~paced:true fd wfd in
                let fatal = greet c in
                Option.iter (fun d -> append c ("err fatal: " ^ d)) fatal;
                conns := [ c ];
                (Some c, fatal)
            | Unix_socket _ | Tcp _ -> (None, None)
          in
          (* ---- the loop ------------------------------------------- *)
          let select readers writers timeout =
            inc ctr.select_rounds;
            match Unix.select readers writers [] timeout with
            | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
            | exception Unix.Unix_error (Unix.EINVAL, _, _) ->
                (* a descriptor select cannot watch got in: drop its
                   connection rather than let the loop die *)
                List.iter
                  (fun c -> if not (selectable c.fd) then drop c)
                  !conns;
                ([], [])
            | r, w, _ -> (r, w)
          in
          (* a paced connection reads only once it has run and
             answered every command it read, so a script is never
             answered [busy] and its output buffer holds one reply *)
          let reading c =
            (not c.closing)
            && not (c.paced && (!held < !held_end || not (settled c)))
          in
          let select_round () =
            let readers =
              (match listener with
              | Some l when not !shutting -> [ l ]
              | _ -> [])
              @ List.filter_map
                  (fun c -> if reading c then Some c.fd else None)
                  !conns
            in
            let writers =
              List.filter_map
                (fun c -> if out_pending c > 0 then Some c.wfd else None)
                !conns
            in
            select readers writers (if !queued > 0 then 0.0 else 0.05)
          in
          let stall_check () =
            let t = now () in
            List.iter
              (fun c ->
                (* the stdio connection is the only client: nobody to
                   protect from it, and pacing bounds its buffer, so a
                   stalled reader of stdout just pauses the server *)
                if c.paced then ()
                else if
                  out_pending c > 0
                  && t -. c.last_progress > limits.write_stall_timeout
                then drop ~slow:true c
                else if out_pending c + c.held > limits.write_buffer_limit
                then drop ~slow:true c)
              !conns
          in
          let rec loop () =
            if !shutting || stop () then ()
            else begin
              (match stdio with
              | Some c when !held < !held_end -> held := cut c !held !held_end
              | _ -> ());
              let readable, writable = select_round () in
              (match listener with
              | Some l when List.memq l readable -> accept_conn l
              | _ -> ());
              List.iter
                (fun c -> if List.memq c.fd readable then read_conn c)
                !conns;
              (* one command per connection per round: fair service,
                 and reply order per connection matches command order.
                 A socket connection whose queue is empty — it just ran
                 its last command (the lockstep case), or a line was
                 answered at read time ([err], [busy queue]) — writes
                 at once instead of waiting a select round to learn
                 that it may; a pipelined one batches its replies into
                 the write pass *)
              List.iter
                (fun c ->
                  if (not c.closing) && not (Queue.is_empty c.cmds) then
                    execute_next c;
                  if (not c.paced) && Queue.is_empty c.cmds
                     && out_pending c > 0
                  then write_conn c)
                !conns;
              List.iter
                (fun c ->
                  if List.memq c.wfd writable && out_pending c > 0 then
                    write_conn c)
                !conns;
              stall_check ();
              loop ()
            end
          in
          loop ();
          (* [stop] may have ended the loop: the drain's drops leave no
             session either *)
          shutting := true;
          (* ---- drain ---------------------------------------------- *)
          (* no new reads: finish every queued command (acked work is
             never dropped by shutdown), say goodbye, flush bounded *)
          List.iter
            (fun c ->
              while not (Queue.is_empty c.cmds) do
                execute_next c
              done)
            !conns;
          List.iter
            (fun c ->
              if not c.closing then append c "ok bye shutdown";
              c.closing <- true)
            !conns;
          let grace_end = now () +. limits.write_stall_timeout in
          let rec flush_all () =
            let pending =
              List.filter_map
                (fun c -> if out_pending c > 0 then Some c.wfd else None)
                !conns
            in
            if pending <> [] && now () < grace_end then begin
              let _, writable = select [] pending 0.05 in
              List.iter
                (fun c ->
                  if List.memq c.wfd writable && out_pending c > 0 then
                    write_conn c)
                !conns;
              (* write_conn drops drained closing conns itself *)
              flush_all ()
            end
          in
          flush_all ();
          List.iter (fun c -> drop c) !conns;
          List.iter
            (fun s -> ignore (Server.close_session h s))
            (Server.sessions h);
          Option.iter
            (fun l -> try Unix.close l with Unix.Unix_error _ -> ())
            listener;
          (match bound with
          | Unix_socket path -> ( try Sys.remove path with Sys_error _ -> ())
          | Tcp _ | Stdio _ -> ());
          match fatal with
          | Some d -> Error (`Fatal d)
          | None ->
              Ok
                {
                  conns_accepted = Metrics.value ctr.conns_accepted;
                  conns_dropped = Metrics.value ctr.conns_dropped;
                  commands = Metrics.value ctr.commands;
                  busy = Metrics.value ctr.busy;
                  shed = Metrics.value ctr.shed;
                  slow_drops = Metrics.value ctr.slow_drops;
                  wedges = Metrics.value ctr.wedged;
                  select_rounds = Metrics.value ctr.select_rounds;
                })
