module Engine = Rrs_core.Engine
module Session = Engine.Session
module Instance = Rrs_core.Instance
module Metrics = Rrs_obs.Metrics
module Wire = Rrs_core.Wire

let policies : (string * Rrs_core.Policy.factory) list =
  [
    ("dlru-edf", Rrs_core.Lru_edf.policy);
    ("dlru", Rrs_core.Delta_lru.policy);
    ("edf", Rrs_core.Edf_policy.policy);
    ("seq-edf", Rrs_core.Edf_policy.seq_policy);
    ("black", Rrs_core.Static_policy.black);
    ("greedy", Rrs_core.Naive_policies.greedy_backlog);
    ( "greedy-hysteresis",
      fun instance ~n ->
        Rrs_core.Naive_policies.greedy_backlog_hysteresis
          ~threshold:instance.Instance.delta instance ~n );
    ("round-robin", Rrs_core.Naive_policies.round_robin);
  ]

let factory_of_id id =
  match List.assoc_opt id policies with
  | Some f -> Ok f
  | None ->
      Error
        (Printf.sprintf "unknown policy %S (serve accepts: %s)" id
           (String.concat ", " (List.map fst policies)))

type config = {
  policy : string;
  n : int;
  delta : int;
  delay : int array;
  mini_rounds : int;
  checkpoint_dir : string option;
  checkpoint_every : int;
  crash_after : int option;
  heartbeat : Rrs_obs.Heartbeat.t option;
  metrics : Metrics.t option;
}

let default_config =
  {
    policy = "dlru-edf";
    n = 8;
    delta = 4;
    delay = Array.make 8 8;
    mini_rounds = 1;
    checkpoint_dir = None;
    checkpoint_every = 1024;
    crash_after = None;
    heartbeat = None;
    metrics = None;
  }

(* Durable-state corruption: the journal or checkpoint cannot be
   trusted, so a restart must not silently continue. *)
exception Corrupt of string

let default_session = "default"

(* ---- applying ops to the session --------------------------------- *)

(* Reply-free: restore replays through this, and only {!exec} builds
   the ack text ({!ack}). *)
let apply_to session (op : Journal.op) : (unit, string) result =
  match op with
  | Journal.Submit { round; color; count } ->
      Session.feed session ~round ~color ~count
      |> Result.map_error (fun e -> "submit: " ^ Session.string_of_feed_error e)
  | Journal.Step k -> (
      (* refused whole, before the first round runs *)
      match Session.check_step session ~rounds:k with
      | Error e -> Error ("step: " ^ Session.string_of_step_error e)
      | Ok () ->
          for _ = 1 to k do
            Session.step session
          done;
          Ok ())
  | Journal.Reconfigure { delta; n; delay } ->
      Session.reconfigure session ?delta ?n ~delay ()
      |> Result.map_error (fun e ->
             "reconfigure: " ^ Session.string_of_reconfigure_error e)

(* Replay work: what replaying ops costs, in counters the session
   keeps anyway.  A round run and a job executed or dropped count one
   unit each, and an op its [work_of_op]: one unit, or for a
   reconfigure the number of colors, since it rebuilds the policy's
   per-color state.  Only differences of [replay_work] are read, so
   the sum of [work_of_op] may start from any origin. *)
let work_of_op session (op : Journal.op) =
  match op with Journal.Reconfigure _ -> Session.num_colors session | _ -> 1

let replay_work session ~op_work =
  op_work + Session.round session + Session.executed session
  + Session.dropped session

(* The ack line of an applied op, read off the session after it and
   built in [w], the host's reused buffer. *)
let ack w session (op : Journal.op) =
  Wire.clear w;
  (match op with
  | Journal.Submit { round; color; count } ->
      Wire.add_string w "ok submitted ";
      Wire.add_decimal w count;
      Wire.add_string w
        (if count = 1 then " job of color " else " jobs of color ");
      Wire.add_decimal w color;
      Wire.add_string w " at round ";
      Wire.add_decimal w round
  | Journal.Step k ->
      Wire.add_string w "ok stepped ";
      Wire.add_decimal w k;
      Wire.add_string w
        (if k = 1 then " round to round " else " rounds to round ");
      Wire.add_decimal w (Session.round session)
  | Journal.Reconfigure _ ->
      Wire.add_string w "ok reconfigured: n=";
      Wire.add_decimal w (Session.n session);
      Wire.add_string w " delta=";
      Wire.add_decimal w (Session.delta session));
  Wire.contents w

(* ---- durable state ------------------------------------------------ *)

let checkpoint_path dir = Filename.concat dir "checkpoint.json"
let checkpoint_prev_path dir = checkpoint_path dir ^ ".prev"

let rec mkdir_p dir =
  if not (List.mem dir [ ""; "/"; "." ] || Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
  end

(* Quarantine a corrupt artifact to the first free <path>.corrupt-<n>.
   [`Rename] moves derived state (checkpoints) out of the restore path
   so the fallback tier engages on the next start too; [`Copy] keeps
   the source of truth (the journal) in place so restarts keep
   refusing until an operator intervenes. *)
let quarantine reader how path =
  if not (Sys.file_exists path) then None
  else begin
    let rec free n =
      let candidate = Printf.sprintf "%s.corrupt-%d" path n in
      if Sys.file_exists candidate then free (n + 1) else candidate
    in
    let target = free 1 in
    (match how with
    | `Rename -> Sys.rename path target
    | `Copy -> Journal.copy_file reader path target);
    Some target
  end

(* A checkpoint file (doc/SERVICE.md, "The checkpoint format"):

     line 1: the snapshot line, byte for byte the [state] reply;
     line 2: serve_machine 2 policy=P mini_rounds=M ops=N chain=C state=S digest=D

   Line 2 holds what loading the session needs without the journal's
   header: the policy id [P], the mini-rounds [M] and the machine state
   [S] ({!Session.save} in the {!Wire} code), taken after op N, where
   the journal's chain value was C; the journal segment that starts at
   op N names the same two values.  D hashes every byte before
   " digest=", line 1 included. *)
type machine = {
  policy : string;
  mini_rounds : int;
  anchor : Journal.anchor;
  state : int * int;  (** its bounds in the bytes read *)
}

let encode_checkpoint w ~policy ~mini_rounds (snapshot : Snapshot.t)
    (anchor : Journal.anchor) session =
  Wire.clear w;
  Snapshot.add_line w snapshot;
  Wire.add_char w '\n';
  Wire.add_string w "serve_machine 2 policy=";
  Wire.add_string w policy;
  Wire.add_string w " mini_rounds=";
  Wire.add_decimal w mini_rounds;
  Wire.add_string w " ops=";
  Wire.add_decimal w anchor.ops;
  Wire.add_string w " chain=";
  Wire.add_string w anchor.chain;
  Wire.add_string w " state=";
  Session.save session w;
  let digest = Wire.Hash.create () in
  Wire.Hash.feed_writer digest w ~pos:0 ~len:(Wire.length w);
  Wire.add_string w " digest=";
  Wire.add_string w (Wire.Hash.digest digest);
  Wire.add_char w '\n'

(* The commit (doc/SERVICE.md, "The checkpoint commit") is
   {!Rrs_obs.File_commit.replace}.  From its step 1 to step 3 there is
   no [.prev] to fall back on, so restore starts from the header only
   if [checkpoint.json] is corrupt as well. *)
let temp_prefix = "checkpoint.json.tmp."

(* Temp files a kill before step 4 (or in the middle of a journal
   rotation) left behind; each process names its own, so they would
   pile up across restarts. *)
let remove_stale_temps dir listing =
  Array.iter
    (fun f ->
      if
        String.starts_with ~prefix:temp_prefix f
        || String.starts_with ~prefix:Journal.temp_prefix f
      then try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    listing

(* Line 2 of the checkpoint in [buf.[0 .. len-1]], from [start], read in
   place.  Its six header tokens end at its first six blanks, found
   from the front; its digest, 16 hex digits after the blank of
   " digest=", closes it, found from the back (the file's last newline
   may be missing).  The state is everything between, and no byte of
   it is looked at here: the {!Wire} code holds no blank and no
   newline, so the decoder refuses a stray one. *)
let parse_machine path buf ~start ~len =
  let bad what = Error (Printf.sprintf "checkpoint %s: line 2: %s" path what) in
  let stop = if len > start && Bytes.get buf (len - 1) = '\n' then len - 1 else len in
  let ends = Array.make 6 stop in
  let rec blanks k i =
    if k = 6 || i >= stop then k
    else if Bytes.get buf i = ' ' then begin
      ends.(k) <- i;
      blanks (k + 1) (i + 1)
    end
    else blanks k (i + 1)
  in
  let tokens = blanks 0 start in
  let first k = if k = 0 then start else ends.(k - 1) + 1 in
  let sub pos stop = Bytes.sub_string buf pos (stop - pos) in
  let is k s = k < tokens && sub (first k) ends.(k) = s in
  (* where the value of token [k], [key=VALUE], starts *)
  let value k key ~until =
    let v = first k + String.length key + 1 in
    if v <= until && sub (first k) v = key ^ "=" then Some v else None
  in
  let text k key = Option.map (fun v -> sub v ends.(k)) (value k key ~until:ends.(k)) in
  let int k key = Option.bind (text k key) int_of_string_opt in
  let digest_blank = stop - 24 in
  let state =
    if tokens = 6 && digest_blank >= first 6 && sub digest_blank (stop - 16) = " digest=" then
      value 6 "state" ~until:digest_blank
    else None
  in
  let rec newline i = i < stop && (Bytes.get buf i = '\n' || newline (i + 1)) in
  if state = None && newline start then bad "trailing bytes after it"
  else if is 0 "serve_machine" && is 1 "2" then
    match (text 2 "policy", int 3 "mini_rounds", int 4 "ops", text 5 "chain", state) with
    | Some policy, Some mini_rounds, Some ops, Some chain, Some state ->
        (* everything before " digest=" *)
        let hash = Wire.Hash.create () in
        Wire.Hash.feed_bytes hash buf ~pos:0 ~len:digest_blank;
        if Wire.Hash.digest hash <> sub (stop - 16) stop then bad "digest mismatch"
        else
          Ok { policy; mini_rounds; anchor = { Journal.ops; chain }; state = (state, digest_blank) }
    | _ -> bad "malformed field"
  else if is 0 "serve_machine" && is 1 "1" then
    bad "version 1 (a version-2 journal's checkpoint) is not supported"
  else bad "not a serve_machine line"

let session_label name policy =
  let suffix = if name = default_session then "" else "-" ^ name in
  "serve" ^ suffix ^ "-" ^ policy

let session_of_header name (header : Journal.header) =
  match factory_of_id header.policy with
  | Error e -> raise (Corrupt e)
  | Ok factory ->
      let cfg = Engine.config ~n:header.n ~mini_rounds:header.mini_rounds () in
      Session.create ~name:(session_label name header.policy) cfg
        ~delta:header.delta ~delay:header.delay factory

(* What restore finds in a checkpoint file.  [Verified]: line 2 passes
   its digest, the journal segment at its op count names its anchor,
   and the state it holds loads and reproduces line 1, byte for byte;
   the loaded session and the journal position to replay from.  The
   digest covers line 1, so line 1 is exactly what the writer wrote and
   is not parsed.  [Unanchored]: an intact checkpoint, at the op count
   given, whose segment is missing or names another anchor.
   [Unreadable]: anything else, a file with line 1 only included. *)
type start = {
  policy : string;
  mini_rounds : int;
  at : int;  (** op count *)
  session : Session.t;
  from : Journal.position;
}

type checkpoint =
  | Absent
  | Verified of start
  | Unanchored of int
  | Unreadable of string

(* The checkpoint is read whole into the reader's buffer and its state
   loaded from there; the loaded session's snapshot line is written
   into [w] and compared with line 1 in place.  The segment at its op
   count is opened after the load but decides first: a checkpoint whose
   segment does not name its anchor is [Unanchored], whether its state
   loads or not. *)
let classify reader w name dir path =
  let unreadable what = Unreadable (Printf.sprintf "checkpoint %s: %s" path what) in
  match Journal.slurp reader path with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Absent
  | exception Unix.Unix_error (e, _, _) -> Unreadable (path ^ ": " ^ Unix.error_message e)
  | len -> (
      let buf = Journal.buffer reader in
      match Bytes.index_from_opt buf 0 '\n' with
      | Some eol when eol < len - 1 -> (
          match parse_machine path buf ~start:(eol + 1) ~len with
          | Error e -> Unreadable e
          | Ok m -> (
              let pos, stop = m.state in
              let loaded =
                match
                  Result.bind (factory_of_id m.policy) (fun factory ->
                      match Engine.config ~n:1 ~mini_rounds:m.mini_rounds () with
                      | cfg ->
                          Session.load ~name:(session_label name m.policy) cfg factory
                            (Wire.reader (Bytes.unsafe_to_string buf) ~pos ~stop)
                      | exception Invalid_argument e -> Error e)
                with
                | Error e -> Error ("machine state: " ^ e)
                | Ok session ->
                    Wire.clear w;
                    Snapshot.add_line w (Snapshot.of_session ~ops:m.anchor.ops session);
                    if Wire.equal_bytes w buf ~pos:0 ~len:eol then Ok session
                    else Error "the machine state does not reproduce line 1"
              in
              match (Journal.at reader dir m.anchor, loaded) with
              | None, _ -> Unanchored m.anchor.ops
              | Some _, Error e -> unreadable e
              | Some from, Ok session ->
                  Verified
                    { policy = m.policy; mini_rounds = m.mini_rounds; at = m.anchor.ops; session; from }))
      | _ -> unreadable "no machine state line")

let header_of_config (config : config) =
  {
    Journal.policy = config.policy;
    n = config.n;
    delta = config.delta;
    delay = config.delay;
    mini_rounds = config.mini_rounds;
  }

(* ---- the session table -------------------------------------------- *)

(* The [serve_*] counters the host updates, resolved once per host so
   no command pays a registry lookup. *)
type counters = {
  ops : Metrics.counter;
  wedged : Metrics.counter;
  deadline_cuts : Metrics.counter;
  restores : Metrics.counter;
  replayed : Metrics.counter;
  replayed_work : Metrics.counter;
  restore_journal_bytes : Metrics.counter;
  restore_files_read : Metrics.counter;
  session_restarts : Metrics.counter;
  torn_tail : Metrics.counter;
  quarantined : Metrics.counter;
  refused : Metrics.counter;
  checkpoints : Metrics.counter;
  leave_checkpoints : Metrics.counter;
  checkpoint_failures : Metrics.counter;
}

let counters m =
  let c = Metrics.counter m in
  {
    ops = c "serve_ops";
    wedged = c "serve_wedged";
    deadline_cuts = c "serve_deadline_cuts";
    restores = c "serve_restores";
    replayed = c "serve_restore_replayed_ops";
    replayed_work = c "serve_restore_replayed_work";
    restore_journal_bytes = c "serve_restore_journal_bytes";
    restore_files_read = c "serve_restore_files_read";
    session_restarts = c "serve_session_restarts";
    torn_tail = c "serve_recovery_torn_tail";
    quarantined = c "serve_recovery_checkpoint_quarantined";
    refused = c "serve_recovery_refused";
    checkpoints = c "serve_checkpoints";
    leave_checkpoints = c "serve_leave_checkpoints";
    checkpoint_failures = c "serve_checkpoint_failures";
  }

type session = {
  name : string;
  seq : int;  (** insertion order in the table *)
  policy_id : string;
  mini_rounds : int;
  session : Session.t;
  wedged_counter : Metrics.counter;
  mutable writer : Journal.writer option;
  dir : string option;
  restored : bool;
  notices : string list;
  mutable ops : int;
  mutable op_work : int;
      (** [work_of_op] summed over the ops applied since the session
          was opened (see {!replay_work}) *)
  mutable ckpt_work : int;  (** replay work at the last committed checkpoint *)
  mutable ckpt_ops : int;
      (** the op count of [checkpoint.json], -1 without one: the next
          commit rotates it to [.prev], and the journal segments before
          it are then needed by no checkpoint *)
  mutable wedged : string option;
}

let session_name s = s.name
let session_ops s = s.ops
let session_notices s = s.notices
let session_wedged s = s.wedged
let session_snapshot s = Snapshot.of_session ~ops:s.ops s.session
let session_work s = replay_work s.session ~op_work:s.op_work

let wedge s reason =
  if s.wedged = None then begin
    s.wedged <- Some reason;
    Metrics.inc s.wedged_counter 1;
    (* the state no longer matches the journal: nothing may append to
       it or checkpoint the session until a reopen restores it *)
    Option.iter Journal.close s.writer;
    s.writer <- None
  end

type host = {
  config : config;
  metrics : Metrics.t;
  counters : counters;
  line_buffer : Wire.writer;
      (** a snapshot line, with a checkpoint's machine state after it:
          reused by every checkpoint, [state] reply and restore's line-1
          check *)
  ack_buffer : Wire.writer;  (** reused by every ack *)
  reader : Journal.reader;  (** reads every file a restore reads *)
  table : (string, session) Hashtbl.t;
  mutable next_seq : int;
  mutable fresh_ops : int;
      (** ops applied by THIS process (replayed ops excluded): the
          deterministic kill point counts real work *)
}

let host (config : config) =
  let metrics =
    match config.metrics with Some m -> m | None -> Metrics.create ()
  in
  {
    config;
    metrics;
    counters = counters metrics;
    line_buffer = Wire.writer ~capacity:4096 ();
    ack_buffer = Wire.writer ~capacity:64 ();
    reader = Journal.reader ();
    table = Hashtbl.create 64;
    next_seq = 0;
    fresh_ops = 0;
  }

let metrics h = h.metrics

let sessions h =
  Hashtbl.fold (fun _ s acc -> s :: acc) h.table []
  |> List.sort (fun a b -> Int.compare a.seq b.seq)

let find_session h name = Hashtbl.find_opt h.table name

let new_seq h =
  h.next_seq <- h.next_seq + 1;
  h.next_seq

let session_dir h name =
  match h.config.checkpoint_dir with
  | None -> None
  | Some root ->
      if name = default_session then Some root
      else Some (Filename.concat (Filename.concat root "sessions") name)

(* Recovery instrumentation: every tier bumps its exact counter and,
   when a flight recorder with a dump directory is ambient, commits a
   black-box dump so the event window around the recovery survives. *)
let recovery_event ~counter ~name ~reason =
  Metrics.inc counter 1;
  match Rrs_obs.Flight_recorder.crash_scope () with
  | None -> ()
  | Some (recorder, dir) -> (
      try ignore (Rrs_obs.Flight_recorder.crash_dump recorder ~dir ~name ~reason)
      with _ -> ())

let refuse h ~name reason =
  recovery_event ~counter:h.counters.refused ~name:("refuse-" ^ name) ~reason;
  raise (Corrupt reason)

(* Replay state, threaded through {!Journal.fold} one op at a time. *)
type replay = {
  replayed : Session.t;
  mutable applied : int;
  mutable op_work : int;
}

let replay_op r op =
  (match apply_to r.replayed op with
  | Ok () -> ()
  | Error e ->
      raise
        (Corrupt
           (Printf.sprintf "journal replay: op %d refused: %s" (r.applied + 1) e)));
  r.applied <- r.applied + 1;
  r.op_work <- r.op_work + work_of_op r.replayed op;
  r

let new_session h name ~dir ~writer ~policy ~mini_rounds ~restored ~notices
    ~ops ~op_work ~ckpt_work ~ckpt_ops session =
  {
    name;
    seq = new_seq h;
    policy_id = policy;
    mini_rounds;
    session;
    wedged_counter = h.counters.wedged;
    writer;
    dir;
    restored;
    notices;
    ops;
    op_work;
    ckpt_work;
    ckpt_ops;
    wedged = None;
  }

let fresh_session h name ~dir ~writer =
  new_session h name ~dir ~writer ~policy:h.config.policy
    ~mini_rounds:h.config.mini_rounds ~restored:false ~notices:[] ~ops:0
    ~op_work:0 ~ckpt_work:0 ~ckpt_ops:(-1)
    (session_of_header name (header_of_config h.config))

(* The tiered restore ladder (doc/SERVICE.md, "Failure matrix").  It
   starts from the newest checkpoint that verifies — the current one,
   else [.prev], which is read only then — or from a fresh session at
   the journal header, and replays the journal from there.  The
   checkpoints that did not verify are judged once the journal has
   loaded.  [segments] are the journal segment files in the directory,
   and [listing] is all of it. *)
let restore h name ~dir ~segments listing =
  let files = Journal.files_read h.reader in
  Fun.protect ~finally:(fun () ->
      Journal.release h.reader;
      Metrics.inc h.counters.restore_files_read (Journal.files_read h.reader - files))
  @@ fun () ->
  remove_stale_temps dir listing;
  let cpath = checkpoint_path dir in
  let ppath = checkpoint_prev_path dir in
  let current = classify h.reader h.line_buffer name dir cpath in
  let prev =
    match current with
    | Verified _ -> Absent
    | _ -> classify h.reader h.line_buffer name dir ppath
  in
  let corrupt_journal e =
    (* tier 3: the source of truth is unreadable — keep a forensic copy
       of the segment aside, leave the original in place so restarts
       keep refusing, and stop with a precise diagnostic *)
    let diag = Journal.describe_load_error ~dir e in
    let segment =
      match e with
      | Journal.Corrupt_body { segment; _ } -> segment
      | _ -> Journal.segment_name 0
    in
    let diag =
      match quarantine h.reader `Copy (Filename.concat dir segment) with
      | Some target -> Printf.sprintf "%s (forensic copy: %s)" diag target
      | None -> diag
    in
    refuse h ~name diag
  in
  let start =
    match (current, prev) with
    | Verified v, _ | _, Verified v -> v
    | _ -> (
        match Journal.top h.reader dir with
        | Ok (header, from) ->
            {
              policy = header.policy;
              mini_rounds = header.mini_rounds;
              at = 0;
              session = session_of_header name header;
              from;
            }
        | Error Journal.Missing ->
            refuse h ~name
              (Printf.sprintf
                 "journal %s: segment 0 is gone (retired at a checkpoint) and \
                  no checkpoint verifies: the ops below the oldest segment \
                  cannot be replayed"
                 dir)
        | Error e -> corrupt_journal e)
  in
  (* a restored session's baseline is the work at the checkpoint it
     loaded; one replayed from the header starts at 0 *)
  let start_work = replay_work start.session ~op_work:0 in
  let r, tear, position =
    match
      Journal.fold h.reader dir start.from ~segments
        ~init:{ replayed = start.session; applied = start.at; op_work = 0 }
        ~f:replay_op
    with
    | Error e -> corrupt_journal e
    | Ok result -> result
  in
  Metrics.inc h.counters.restore_journal_bytes (Journal.bytes_read position);
  let checkpoints =
    [ ("checkpoint", cpath, current); ("previous checkpoint", ppath, prev) ]
  in
  (* tier 3 first, so that a refused restore changes nothing on disk.
     The start is the newest verified checkpoint, so only an unanchored
     one can be ahead of the journal, and one the journal reaches but
     whose segment is gone leaves the ops after it unaccounted for *)
  List.iter
    (function
      | which, _, Unanchored ops when ops > r.applied ->
          refuse h ~name
            (Printf.sprintf
               "journal %s holds %d op%s but the %s was committed at op %d: \
                acked ops are missing from the journal"
               dir r.applied
               (if r.applied = 1 then "" else "s")
               which ops)
      | which, _, Unanchored ops when ops = r.applied ->
          refuse h ~name
            (Printf.sprintf
               "journal %s ends at op %d, where the %s was committed, but \
                the segment that starts there is missing or changed: acked \
                ops after it may be missing"
               dir ops which)
      | _ -> ())
    checkpoints;
  (* a segment past the op count the journal reached: the chain stopped
     short of it, so the acked ops between are missing *)
  (match List.find_opt (fun start -> start > r.applied) segments with
  | Some start ->
      refuse h ~name
        (Printf.sprintf
           "journal %s ends at op %d, but segment %s starts at op %d: the \
            ops between are missing"
           dir r.applied (Journal.segment_name start) start)
  | None -> ());
  (* an intact checkpoint whose segment changed below the journal's end:
     only a verified previous checkpoint can vouch for the journal *)
  (match (current, prev) with
  | Unanchored ops, (Absent | Unanchored _ | Unreadable _) ->
      refuse h ~name
        (Printf.sprintf
           "journal %s no longer holds the segment the checkpoint at op %d \
            was taken at, and no previous checkpoint verifies: the journal \
            changed below acked state"
           dir ops)
  | _ -> ());
  let notices = ref [] in
  let notice fmt = Printf.ksprintf (fun m -> notices := m :: !notices) fmt in
  (match tear with
  | None -> ()
  | Some t ->
      (* tier 1: the crash interrupted the final append; the op was
         never acked, so dropping it is the documented at-most-once
         window.  Cut the segment at the tear too — otherwise the next
         append would glue its line onto the torn fragment and turn a
         benign tail into mid-body corruption.  A segment cut short in
         its header holds no op: it goes. *)
      let msg = Journal.describe_tear ~dir t in
      recovery_event ~counter:h.counters.torn_tail ~name:("torn-tail-" ^ name)
        ~reason:msg;
      let path = Filename.concat dir t.Journal.segment in
      (try
         if t.Journal.offset = 0 then Unix.unlink path
         else Unix.truncate path t.Journal.offset
       with Unix.Unix_error _ -> ());
      notice "%s" msg);
  (* tier 2: checkpoints are derived state — one that cannot be a start
     is quarantined out of the restore path *)
  List.iter
    (fun (which, path, checkpoint) ->
      let set_aside what =
        let target = quarantine h.reader `Rename path in
        let msg =
          Printf.sprintf "quarantined %s%s" what
            (match target with Some t -> " to " ^ t | None -> "")
        in
        recovery_event ~counter:h.counters.quarantined ~name:("checkpoint-" ^ name)
          ~reason:msg;
        notice "%s" msg
      in
      match checkpoint with
      | Unreadable e -> set_aside (Printf.sprintf "unreadable %s (%s)" which e)
      | Unanchored ops ->
          set_aside
            (Printf.sprintf "%s at op %d whose journal segment changed" which ops)
      | Absent | Verified _ -> ())
    checkpoints;
  let writer = Journal.append_to dir position ~segments in
  Metrics.inc h.counters.restores 1;
  Metrics.inc h.counters.replayed (r.applied - start.at);
  Metrics.inc h.counters.replayed_work
    (replay_work r.replayed ~op_work:r.op_work - start_work);
  new_session h name ~dir:(Some dir) ~writer:(Some writer) ~policy:start.policy
    ~mini_rounds:start.mini_rounds ~restored:true ~notices:(List.rev !notices)
    ~ops:r.applied ~op_work:r.op_work ~ckpt_work:start_work
    ~ckpt_ops:(match current with Verified v -> v.at | _ -> -1)
    r.replayed

let open_session h name =
  if not (Protocol.valid_session_name name) then
    invalid_arg (Printf.sprintf "invalid session name %S" name);
  (match find_session h name with
  | Some s when s.wedged = None ->
      invalid_arg (Printf.sprintf "session %S already open" name)
  | Some _ ->
      (* reopening a wedged session (its writer closed): the in-memory
         state is untrusted, discard it and restore from the journal *)
      Hashtbl.remove h.table name;
      Metrics.inc h.counters.session_restarts 1
  | None -> ());
  let s =
    match session_dir h name with
    | None -> fresh_session h name ~dir:None ~writer:None
    | Some dir ->
        let listing =
          try Sys.readdir dir
          with Sys_error _ ->
            mkdir_p dir;
            [||]
        in
        let segments =
          List.filter_map Journal.segment_of_name (Array.to_list listing)
        in
        if segments <> [] then restore h name ~dir ~segments listing
        else
          fresh_session h name ~dir:(Some dir)
            ~writer:(Some (Journal.create dir (header_of_config h.config)))
  in
  (* restore replayed on Sink.null: only live rounds beat *)
  Option.iter
    (fun hb ->
      Session.set_sink s.session
        (Rrs_obs.Heartbeat.attach hb Rrs_obs.Sink.null))
    h.config.heartbeat;
  Hashtbl.replace h.table name s;
  s

let try_open h name =
  match open_session h name with
  | s -> Ok s
  | exception (Corrupt d | Invalid_argument d | Sys_error d) -> Error d
  | exception Unix.Unix_error (e, fn, arg) ->
      Error (Printf.sprintf "%s %s: %s" fn arg (Unix.error_message e))

(* ---- checkpoints and commits -------------------------------------- *)

let checkpoint_session h s =
  match (s.dir, s.writer) with
  | Some dir, Some w ->
      let snapshot = Snapshot.of_session ~ops:s.ops s.session in
      (match
         (* the checkpoint's segment starts at its op count, in the file
            of one the commit retires *)
         Journal.rotate w ~reuse_below:s.ckpt_ops;
         encode_checkpoint h.line_buffer ~policy:s.policy_id
           ~mini_rounds:s.mini_rounds snapshot (Journal.anchor w) s.session;
         Rrs_obs.File_commit.replace (checkpoint_path dir) (fun fd ->
             Wire.write_fd fd h.line_buffer;
             Wire.length h.line_buffer)
       with
      | () -> Metrics.inc h.counters.checkpoints 1
      | exception e ->
          Metrics.inc h.counters.checkpoint_failures 1;
          raise e);
      (* the checkpoint the commit rotated to [.prev] is the oldest one
         kept: no restore reads a segment before it *)
      Journal.retire w ~below:s.ckpt_ops;
      s.ckpt_ops <- s.ops;
      s.ckpt_work <- session_work s;
      Some snapshot
  | _ ->
      (* ephemeral, or wedged: an untrusted state is never checkpointed *)
      None

let apply_op s op = apply_to s.session op

(* The clock is read before a step's first round and after every round
   but the last; [apply_op] refuses a step that cannot run whole. *)
let apply_within seconds s (op : Journal.op) =
  match op with
  | Journal.Step k when k > 0 && Session.check_step s.session ~rounds:k = Ok () ->
      let stop = Unix.gettimeofday () +. seconds in
      let rec run i =
        Session.step s.session;
        if i < k && Unix.gettimeofday () < stop then run (i + 1)
      in
      Ok (run 1)
  | _ -> apply_op s op

let commit h s op =
  (match s.writer with Some w -> Journal.append w op | None -> ());
  s.ops <- s.ops + 1;
  s.op_work <- s.op_work + work_of_op s.session op;
  h.fresh_ops <- h.fresh_ops + 1;
  Metrics.inc h.counters.ops 1;
  (* the cadence counts replay work, not ops: a restore from the
     current checkpoint replays less than [checkpoint_every] units, and
     an op that alone costs that much (a loaded [step]) is checkpointed
     right after it *)
  if
    h.config.checkpoint_every > 0
    && session_work s - s.ckpt_work >= h.config.checkpoint_every
  then ignore (checkpoint_session h s);
  match h.config.crash_after with
  | Some k when h.fresh_ops >= k ->
      (* simulate a hard kill: no checkpoint, no finish, no ack — only
         the journal survives *)
      Stdlib.exit 70
  | _ -> ()

(* Rent or buy: a session a connection leaves is checkpointed once the
   replay work since its last checkpoint reaches its number of colors.
   That is what a [reconfigure] is charged for rebuilding the per-color
   state a checkpoint encodes, so the checkpoint never costs more than
   the replay it saves.  A failed commit leaves the previous checkpoint
   in place ({!Rrs_obs.File_commit.replace}), so it fails neither the switch nor the
   session. *)
let leave h s =
  match s.writer with
  | Some _
    when h.config.checkpoint_every > 0
         && session_work s - s.ckpt_work >= Session.num_colors s.session -> (
      match checkpoint_session h s with
      | Some _ -> Metrics.inc h.counters.leave_checkpoints 1
      | None -> ()
      | exception (Unix.Unix_error _ | Sys_error _) -> ())
  | _ ->
      (* ephemeral, wedged, checkpoints off, or too little to save *)
      ()

let abandon_session h s =
  Option.iter Journal.close s.writer;
  s.writer <- None;
  Hashtbl.remove h.table s.name

let close_session h s =
  ignore (checkpoint_session h s);
  Option.iter Journal.close s.writer;
  s.writer <- None;
  Hashtbl.remove h.table s.name;
  Session.finish s.session

(* ---- command execution -------------------------------------------- *)

let greeting s =
  List.map (fun w -> "ok warning: " ^ w) s.notices
  @
  (* the default session keeps the exact single-session format the CI
     restart test and existing clients grep for; named sessions carry
     a [name=] field *)
  let name_part =
    if s.name = default_session then "" else Printf.sprintf " name=%s" s.name
  in
  if s.restored then
    [
      Printf.sprintf "ok restored%s round=%d ops=%d pending=%d" name_part
        (Session.round s.session) s.ops
        (Session.pending_jobs s.session);
    ]
  else
    [
      Printf.sprintf "ok session%s policy=%s n=%d delta=%d colors=%d" name_part
        s.policy_id (Session.n s.session) (Session.delta s.session)
        (Session.num_colors s.session);
    ]

type outcome =
  | Reply of string list
  | Switch of session * string list
  | Bye of string list
  | Stop of string list

(* the connection leaves [from] for [s], unless it stays on it *)
let switch h ~from s lines =
  if s.name <> from.name then leave h from;
  Switch (s, lines)

let session_line s =
  Printf.sprintf "ok %s round=%d ops=%d pending=%d%s" s.name
    (Session.round s.session) s.ops
    (Session.pending_jobs s.session)
    (match s.wedged with None -> "" | Some _ -> " wedged")

let wedged_reply s reason =
  Reply
    [
      Printf.sprintf
        "err session %s wedged (%s); `open %s` to recover it from its journal"
        s.name reason s.name;
    ]

(* A state-changing command: apply, journal, ack.  A top-level function,
   so serving one builds no closure.  A step {!apply_within} cut short is
   journaled as the rounds that ran. *)
let mutate apply h current op =
  match current.wedged with
  | Some reason -> wedged_reply current reason
  | None -> (
      let before = Session.round current.session in
      match (apply current op, op) with
      | Ok (), Journal.Step k when Session.round current.session - before < k ->
          let round = Session.round current.session in
          Metrics.inc h.counters.deadline_cuts 1;
          commit h current (Journal.Step (round - before));
          Reply [ Printf.sprintf "ok stepped %d of %d rounds to round %d" (round - before) k round ]
      | Ok (), _ ->
          commit h current op;
          Reply [ ack h.ack_buffer current.session op ]
      | Error e, _ -> Reply [ "err " ^ e ])

let exec ?(apply = apply_op) h (current : session) (cmd : Protocol.command) :
    outcome =
  match cmd with
  | Protocol.Help ->
      Reply
        (String.split_on_char '\n' Protocol.grammar
        |> List.map (fun l -> "ok " ^ l))
  | Protocol.State ->
      Wire.clear h.line_buffer;
      Snapshot.add_line h.line_buffer (session_snapshot current);
      Reply [ Wire.contents h.line_buffer ]
  | Protocol.Checkpoint -> (
      match current.wedged with
      | Some reason -> wedged_reply current reason
      | None -> (
          match checkpoint_session h current with
          | None ->
              Reply
                [
                  "err checkpoint: ephemeral session (start with \
                   --checkpoint-dir)";
                ]
          | Some snapshot ->
              Reply
                [
                  Printf.sprintf "ok checkpoint round=%d ops=%d"
                    snapshot.Snapshot.round snapshot.Snapshot.ops;
                ]))
  | Protocol.Submit { round; color; count } ->
      let round = Option.value ~default:(Session.round current.session) round in
      mutate apply h current (Journal.Submit { round; color; count })
  | Protocol.Step k -> mutate apply h current (Journal.Step k)
  | Protocol.Reconfigure { delta; n; delay } ->
      mutate apply h current (Journal.Reconfigure { delta; n; delay })
  | Protocol.Open name -> (
      match find_session h name with
      | Some s when s.wedged = None ->
          if s.name = current.name then
            Reply [ Printf.sprintf "ok attached %s (already current)" name ]
          else
            switch h ~from:current s
              [ Printf.sprintf "ok attached %s (already open)" name ]
      | _ -> (
          match try_open h name with
          | Ok s -> switch h ~from:current s (greeting s)
          | Error diag -> Reply [ "err open: " ^ diag ]))
  | Protocol.Attach name -> (
      match find_session h name with
      | Some s -> switch h ~from:current s [ "ok attached " ^ name ]
      | None ->
          Reply
            [
              Printf.sprintf "err attach: no open session %S (try: open %s)"
                name name;
            ])
  | Protocol.Sessions ->
      Reply
        (Printf.sprintf "ok sessions %d" (Hashtbl.length h.table)
        :: List.map session_line (sessions h))
  | Protocol.Shutdown -> Stop [ "ok shutting down" ]
  | Protocol.Quit ->
      let s = current.session in
      Bye
        [
          Printf.sprintf
            "ok bye round=%d executed=%d dropped=%d recolorings=%d cost=%d"
            (Session.round s) (Session.executed s) (Session.dropped s)
            (Session.reconfigurations s)
            (Rrs_core.Cost.total (Session.cost s));
        ]
