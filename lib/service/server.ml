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
    checkpoint_every = 256;
    crash_after = None;
    heartbeat = None;
    metrics = None;
  }

(* Durable-state corruption: the journal or checkpoint cannot be
   trusted, so a restart must not silently continue.  Fatal under
   {!Rrs_robust.Supervisor.classify_default}. *)
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
  | Journal.Step k ->
      for _ = 1 to k do
        Session.step session
      done;
      Ok ()
  | Journal.Reconfigure { delta; n; delay } ->
      Session.reconfigure session ?delta ?n ~delay ()
      |> Result.map_error (fun e ->
             "reconfigure: " ^ Session.string_of_reconfigure_error e)

(* The ack line of an applied op, read off the session after it. *)
let ack session (op : Journal.op) =
  match op with
  | Journal.Submit { round; color; count } ->
      Printf.sprintf "ok submitted %d job%s of color %d at round %d" count
        (if count = 1 then "" else "s")
        color round
  | Journal.Step k ->
      Printf.sprintf "ok stepped %d round%s to round %d" k
        (if k = 1 then "" else "s")
        (Session.round session)
  | Journal.Reconfigure _ ->
      Printf.sprintf "ok reconfigured: n=%d delta=%d" (Session.n session)
        (Session.delta session)

(* ---- durable state ------------------------------------------------ *)

let journal_path dir = Filename.concat dir "journal.jsonl"
let checkpoint_path dir = Filename.concat dir "checkpoint.json"
let checkpoint_prev_path dir = checkpoint_path dir ^ ".prev"

let mkdir_p dir =
  let rec go dir =
    if dir <> "" && dir <> "/" && dir <> "." && not (Sys.file_exists dir)
    then begin
      go (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

(* Quarantine a corrupt artifact to the first free <path>.corrupt-<n>.
   [`Rename] moves derived state (checkpoints) out of the restore path
   so the fallback tier engages on the next start too; [`Copy] keeps
   the source of truth (the journal) in place so restarts keep
   refusing until an operator intervenes. *)
let quarantine how path =
  if not (Sys.file_exists path) then None
  else begin
    let rec free n =
      let candidate = Printf.sprintf "%s.corrupt-%d" path n in
      if Sys.file_exists candidate then free (n + 1) else candidate
    in
    let target = free 1 in
    (match how with
    | `Rename -> Sys.rename path target
    | `Copy ->
        let contents = In_channel.with_open_bin path In_channel.input_all in
        Out_channel.with_open_bin target (fun oc ->
            Out_channel.output_string oc contents));
    Some target
  end

(* A checkpoint file (doc/SERVICE.md, "The checkpoint format"):

     line 1: the snapshot line, byte for byte the [state] reply;
     line 2: serve_machine 1 ops=N offset=B lines=L journal=H state=S digest=D

   Line 2 holds the session's machine state [S] ({!Session.save} in the
   {!Wire} code), taken after op N, when the journal was B bytes and L
   lines long with prefix hash H.  D hashes every byte before
   " digest=", line 1 included. *)
type machine = { ops : int; anchor : Journal.anchor; state : string }

let encode_checkpoint w (snapshot : Snapshot.t) (anchor : Journal.anchor) session =
  Wire.clear w;
  Snapshot.add_line w snapshot;
  Wire.add_char w '\n';
  let field name v =
    Wire.add_string w name;
    Wire.add_decimal w v
  in
  field "serve_machine 1 ops=" snapshot.ops;
  field " offset=" anchor.offset;
  field " lines=" anchor.lines;
  Wire.add_string w " journal=";
  Wire.add_string w anchor.digest;
  Wire.add_string w " state=";
  Session.save session w;
  let digest = Wire.Hash.create () in
  Wire.Hash.feed_writer digest w ~pos:0 ~len:(Wire.length w);
  Wire.add_string w " digest=";
  Wire.add_string w (Wire.Hash.digest digest);
  Wire.add_char w '\n'

(* The commit (doc/SERVICE.md, "The checkpoint commit") reuses the two
   files it rotates:

   1. [.prev], the checkpoint before last, becomes the temp file;
   2. the new bytes overwrite it in place, then [ftruncate] cuts it to
      their length;
   3. [checkpoint.json] becomes [.prev];
   4. the temp file becomes [checkpoint.json].

   Only the first two checkpoints of a session create a file, and no
   rename replaces one: on ext4 a rename that replaces a file, like a
   truncate to zero, starts writing back delayed data inside the call
   (doc/PERFORMANCE.md, "What a checkpoint costs").
   A complete checkpoint exists at every instant: [checkpoint.json] up
   to step 3, [.prev] after it.  From step 1 to step 3 there is no
   [.prev] to fall back on, so restore starts from the header only if
   [checkpoint.json] is corrupt as well.  An exception before step 4
   removes the temp file instead of committing it. *)
let temp_prefix = "checkpoint.json.tmp."

let rename_if_present src dst =
  try Unix.rename src dst with Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let write_checkpoint dir w =
  let path = checkpoint_path dir and prev = checkpoint_prev_path dir in
  let temp = Filename.concat dir (temp_prefix ^ string_of_int (Unix.getpid ())) in
  rename_if_present prev temp;
  match
    let fd = Unix.openfile temp [ O_WRONLY; O_CREAT; O_CLOEXEC ] 0o666 in
    Fun.protect
      ~finally:(fun () -> Unix.close fd)
      (fun () ->
        Wire.write_fd fd w;
        Unix.ftruncate fd (Wire.length w));
    rename_if_present path prev;
    Unix.rename temp path
  with
  | () -> ()
  | exception e ->
      (try Sys.remove temp with Sys_error _ -> ());
      raise e

(* Temp files a kill before step 4 left behind; each process names its
   own, so they would pile up across restarts. *)
let remove_stale_temps dir =
  Array.iter
    (fun f ->
      if String.starts_with ~prefix:temp_prefix f then
        try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
    (try Sys.readdir dir with Sys_error _ -> [||])

let parse_machine path contents ~start =
  let stop =
    match String.index_from_opt contents start '\n' with
    | Some i when i = String.length contents - 1 -> i
    | None -> String.length contents
    | Some _ -> -1
  in
  let bad what = Error (Printf.sprintf "checkpoint %s: line 2: %s" path what) in
  if stop < 0 then bad "trailing bytes after it"
  else
    let value key tok =
      let prefix = key ^ "=" in
      if String.starts_with ~prefix tok then
        Some (String.sub tok (String.length prefix) (String.length tok - String.length prefix))
      else None
    in
    let int key tok = Option.bind (value key tok) int_of_string_opt in
    match String.split_on_char ' ' (String.sub contents start (stop - start)) with
    | [ "serve_machine"; "1"; ops; offset; lines; journal; state; last ] -> (
        match
          ( int "ops" ops,
            int "offset" offset,
            int "lines" lines,
            value "journal" journal,
            value "state" state,
            value "digest" last )
        with
        | Some ops, Some offset, Some lines, Some journal, Some state, Some digest ->
            (* everything before " digest=" *)
            let hash = Wire.Hash.create () in
            Wire.Hash.feed hash contents ~pos:0 ~len:(stop - String.length last - 1);
            if Wire.Hash.digest hash <> digest then bad "digest mismatch"
            else Ok { ops; anchor = { Journal.offset; lines; digest = journal }; state }
        | _ -> bad "malformed field")
    | _ -> bad "not a serve_machine line"

let session_label name (header : Journal.header) =
  let suffix = if name = default_session then "" else "-" ^ name in
  "serve" ^ suffix ^ "-" ^ header.policy

let session_of_header name (header : Journal.header) =
  match factory_of_id header.policy with
  | Error e -> raise (Corrupt e)
  | Ok factory ->
      let cfg = Engine.config ~n:header.n ~mini_rounds:header.mini_rounds () in
      Session.create ~name:(session_label name header) cfg
        ~delta:header.delta ~delay:header.delay factory

(* What restore finds in a checkpoint file.  [Verified]: line 2 passes
   its digest, the journal still starts with the prefix it names, and
   the state it holds loads and reproduces line 1, byte for byte; the
   session at its op count and the journal position to replay from.
   The digest covers line 1, so line 1 is exactly what the writer wrote
   and is not parsed.  [Unanchored]: an intact checkpoint, at the op
   count given, whose journal prefix changed.  [Unreadable]: anything
   else, a file with line 1 only included. *)
type checkpoint =
  | Absent
  | Verified of int * (Journal.header * Journal.position) * Session.t
  | Unanchored of int
  | Unreadable of string

let classify name jpath path =
  let unreadable what = Unreadable (Printf.sprintf "checkpoint %s: %s" path what) in
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ when not (Sys.file_exists path) -> Absent
  | exception Sys_error e -> Unreadable e
  | contents -> (
      match String.index_opt contents '\n' with
      | Some eol when eol < String.length contents - 1 -> (
          match parse_machine path contents ~start:(eol + 1) with
          | Error e -> Unreadable e
          | Ok m -> (
              match Journal.resume jpath m.anchor with
              | None -> Unanchored m.ops
              | Some ((header, _) as from) -> (
                  let cfg = Engine.config ~n:header.n ~mini_rounds:header.mini_rounds () in
                  let reader = Wire.reader m.state ~pos:0 ~stop:(String.length m.state) in
                  match
                    Result.bind (factory_of_id header.policy) (fun factory ->
                        Session.load ~name:(session_label name header) cfg factory reader)
                  with
                  | Error e -> unreadable ("machine state: " ^ e)
                  | Ok session ->
                      let line = Snapshot.to_line (Snapshot.of_session ~ops:m.ops session) in
                      if String.equal line (String.sub contents 0 eol) then
                        Verified (m.ops, from, session)
                      else unreadable "the machine state does not reproduce line 1")))
      | _ -> unreadable "no machine state line")

let header_of_config config =
  {
    Journal.version = Journal.header_version;
    policy = config.policy;
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
  restores : Metrics.counter;
  replayed : Metrics.counter;
  session_restarts : Metrics.counter;
  torn_tail : Metrics.counter;
  quarantined : Metrics.counter;
  refused : Metrics.counter;
}

let counters m =
  let c = Metrics.counter m in
  {
    ops = c "serve_ops";
    wedged = c "serve_wedged";
    restores = c "serve_restores";
    replayed = c "serve_restore_replayed_ops";
    session_restarts = c "serve_session_restarts";
    torn_tail = c "serve_recovery_torn_tail";
    quarantined = c "serve_recovery_checkpoint_quarantined";
    refused = c "serve_recovery_refused";
  }

type session = {
  name : string;
  seq : int;  (** insertion order in the table *)
  policy_id : string;
  session : Session.t;
  wedged_counter : Metrics.counter;
  mutable writer : Journal.writer option;
  dir : string option;
  restored : bool;
  notices : string list;
  mutable ops : int;
  mutable ckpt_ops : int;  (** ops at the last committed checkpoint *)
  mutable wedged : string option;
}

let session_name s = s.name
let session_ops s = s.ops
let session_restored s = s.restored
let session_notices s = s.notices
let session_wedged s = s.wedged
let session_snapshot s = Snapshot.of_session ~ops:s.ops s.session

let wedge s reason =
  if s.wedged = None then begin
    s.wedged <- Some reason;
    Metrics.inc s.wedged_counter 1;
    (* an abandoned command attempt may still be running against this
       session's in-memory state; make sure it can never reach the
       journal behind the server's back *)
    Option.iter Journal.close s.writer;
    s.writer <- None
  end

type host = {
  config : config;
  metrics : Metrics.t;
  counters : counters;
  checkpoint_buffer : Wire.writer;  (** reused by every checkpoint *)
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
    checkpoint_buffer = Wire.writer ~capacity:4096 ();
    table = Hashtbl.create 64;
    next_seq = 0;
    fresh_ops = 0;
  }

let host_config h = h.config
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
  header : Journal.header;
  replayed : Session.t;
  mutable applied : int;
}

let replay_op r op =
  (match apply_to r.replayed op with
  | Ok () -> ()
  | Error e ->
      raise
        (Corrupt
           (Printf.sprintf "journal replay: op %d refused: %s" (r.applied + 1) e)));
  r.applied <- r.applied + 1;
  r

let fresh_session h name ~dir ~writer =
  {
    name;
    seq = new_seq h;
    policy_id = h.config.policy;
    session = session_of_header name (header_of_config h.config);
    wedged_counter = h.counters.wedged;
    writer;
    dir;
    restored = false;
    notices = [];
    ops = 0;
    ckpt_ops = 0;
    wedged = None;
  }

(* The tiered restore ladder (doc/SERVICE.md, "Failure matrix").  It
   starts from the newest checkpoint that verifies — the current one,
   else [.prev], which is read only then — or from a fresh session at
   the journal header, and replays the journal from there.  The
   checkpoints that did not verify are judged once the journal has
   loaded. *)
let restore h name ~dir jpath =
  remove_stale_temps dir;
  let cpath = checkpoint_path dir in
  let ppath = checkpoint_prev_path dir in
  let current = classify name jpath cpath in
  let prev =
    match current with Verified _ -> Absent | _ -> classify name jpath ppath
  in
  let from, init, start_ops =
    match (current, prev) with
    | Verified (ops, from, session), _ | _, Verified (ops, from, session) ->
        (Some from, (fun header -> { header; replayed = session; applied = ops }), ops)
    | _ ->
        ( None,
          (fun header ->
            { header; replayed = session_of_header name header; applied = 0 }),
          0 )
  in
  match Journal.fold ?from jpath ~init ~f:replay_op with
  | Error Journal.Missing ->
      fresh_session h name ~dir:(Some dir)
        ~writer:(Some (Journal.create jpath (header_of_config h.config)))
  | Error e ->
      (* tier 3: the source of truth is unreadable — keep a forensic
         copy aside, leave the original in place so restarts keep
         refusing, and stop with a precise diagnostic *)
      let diag = Journal.describe_load_error ~path:jpath e in
      let diag =
        match quarantine `Copy jpath with
        | Some target -> Printf.sprintf "%s (forensic copy: %s)" diag target
        | None -> diag
      in
      refuse h ~name diag
  | Ok (r, tear, position) ->
      let notices = ref [] in
      let notice fmt = Printf.ksprintf (fun m -> notices := m :: !notices) fmt in
      (match tear with
      | None -> ()
      | Some t ->
          (* tier 1: the crash interrupted the final append; the op was
             never acked, so dropping it is the documented at-most-once
             window.  Cut the file at the tear too — otherwise the next
             append would glue its line onto the torn fragment and turn
             a benign tail into mid-body corruption *)
          let msg = Journal.describe_tear ~path:jpath t in
          recovery_event ~counter:h.counters.torn_tail
            ~name:("torn-tail-" ^ name) ~reason:msg;
          (try Unix.truncate jpath t.Journal.offset
           with Unix.Unix_error _ -> ());
          notice "%s" msg);
      (* tier 2: checkpoints are derived state — one that cannot be a
         start is quarantined out of the restore path *)
      let set_aside path what =
        let target = quarantine `Rename path in
        let msg =
          Printf.sprintf "quarantined %s%s" what
            (match target with Some t -> " to " ^ t | None -> "")
        in
        recovery_event ~counter:h.counters.quarantined
          ~name:("checkpoint-" ^ name) ~reason:msg;
        notice "%s" msg
      in
      let checkpoints =
        [ ("checkpoint", cpath, current); ("previous checkpoint", ppath, prev) ]
      in
      List.iter
        (function
          | which, path, Unreadable e ->
              set_aside path (Printf.sprintf "unreadable %s (%s)" which e)
          | _ -> ())
        checkpoints;
      (* the start is the newest verified checkpoint, so only an
         unanchored one can be ahead of the journal *)
      List.iter
        (function
          | which, _, Unanchored ops when ops > r.applied ->
              refuse h ~name
                (Printf.sprintf
                   "journal %s holds %d op%s but the %s was committed at op %d: \
                    acked ops are missing from the journal"
                   jpath r.applied
                   (if r.applied = 1 then "" else "s")
                   which ops)
          | _ -> ())
        checkpoints;
      (* an intact checkpoint over a journal prefix that changed: the
         journal is the source of truth, but only a verified previous
         checkpoint can vouch for it below the current one *)
      (match (current, prev) with
      | Unanchored ops, Verified _ ->
          set_aside cpath
            (Printf.sprintf
               "checkpoint at op %d whose journal prefix changed (the previous \
                checkpoint verifies)"
               ops)
      | Unanchored ops, _ ->
          refuse h ~name
            (Printf.sprintf
               "journal %s no longer starts with the prefix the checkpoint at \
                op %d was taken at, and no previous checkpoint verifies: the \
                journal changed below acked state"
               jpath ops)
      | _ -> ());
      (match prev with
      | Unanchored ops ->
          set_aside ppath
            (Printf.sprintf
               "previous checkpoint at op %d whose journal prefix changed" ops)
      | _ -> ());
      Metrics.inc h.counters.restores 1;
      Metrics.inc h.counters.replayed (r.applied - start_ops);
      {
        name;
        seq = new_seq h;
        policy_id = r.header.Journal.policy;
        session = r.replayed;
        wedged_counter = h.counters.wedged;
        writer = Some (Journal.append_to jpath position);
        dir = Some dir;
        restored = true;
        notices = List.rev !notices;
        ops = r.applied;
        ckpt_ops = start_ops;
        wedged = None;
      }

let open_session h name =
  if not (Protocol.valid_session_name name) then
    invalid_arg (Printf.sprintf "invalid session name %S" name);
  (match find_session h name with
  | Some s when s.wedged = None ->
      invalid_arg (Printf.sprintf "session %S already open" name)
  | Some s ->
      (* reopening a wedged session: the in-memory state is untrusted,
         discard it and restore from the journal *)
      Option.iter Journal.close s.writer;
      s.writer <- None;
      Hashtbl.remove h.table name;
      Metrics.inc h.counters.session_restarts 1
  | None -> ());
  let s =
    match session_dir h name with
    | None -> fresh_session h name ~dir:None ~writer:None
    | Some dir ->
        mkdir_p dir;
        let jpath = journal_path dir in
        if Sys.file_exists jpath then restore h name ~dir jpath
        else
          fresh_session h name ~dir:(Some dir)
            ~writer:(Some (Journal.create jpath (header_of_config h.config)))
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
      encode_checkpoint h.checkpoint_buffer snapshot (Journal.anchor w) s.session;
      write_checkpoint dir h.checkpoint_buffer;
      s.ckpt_ops <- s.ops;
      Some snapshot
  | _ ->
      (* ephemeral, or wedged: an untrusted state is never checkpointed *)
      None

let apply_op s op = apply_to s.session op

let commit h s op =
  Option.iter (fun w -> Journal.append w op) s.writer;
  s.ops <- s.ops + 1;
  h.fresh_ops <- h.fresh_ops + 1;
  Metrics.inc h.counters.ops 1;
  if
    h.config.checkpoint_every > 0
    && s.ops - s.ckpt_ops >= h.config.checkpoint_every
  then ignore (checkpoint_session h s);
  match h.config.crash_after with
  | Some k when h.fresh_ops >= k ->
      (* simulate a hard kill: no checkpoint, no finish, no ack — only
         the journal survives *)
      Stdlib.exit 70
  | _ -> ()

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

let session_line s =
  Printf.sprintf "ok %s round=%d ops=%d pending=%d%s" s.name
    (Session.round s.session) s.ops
    (Session.pending_jobs s.session)
    (match s.wedged with None -> "" | Some _ -> " wedged")

let exec ?(apply = apply_op) h (current : session) (cmd : Protocol.command) :
    outcome =
  let unless_wedged k =
    match current.wedged with
    | Some reason ->
        Reply
          [
            Printf.sprintf
              "err session %s wedged (%s); `open %s` to recover it from its \
               journal"
              current.name reason current.name;
          ]
    | None -> k ()
  in
  let mutate op =
    unless_wedged @@ fun () ->
    match apply current op with
    | Ok () ->
        commit h current op;
        Reply [ ack current.session op ]
    | Error e -> Reply [ "err " ^ e ]
  in
  match cmd with
  | Protocol.Help ->
      Reply
        (String.split_on_char '\n' Protocol.grammar
        |> List.map (fun l -> "ok " ^ l))
  | Protocol.State -> Reply [ Snapshot.to_line (session_snapshot current) ]
  | Protocol.Checkpoint -> (
      unless_wedged @@ fun () ->
      match checkpoint_session h current with
      | None ->
          Reply
            [ "err checkpoint: ephemeral session (start with --checkpoint-dir)" ]
      | Some snapshot ->
          Reply
            [
              Printf.sprintf "ok checkpoint round=%d ops=%d"
                snapshot.Snapshot.round snapshot.Snapshot.ops;
            ])
  | Protocol.Submit { round; color; count } ->
      let round = Option.value ~default:(Session.round current.session) round in
      mutate (Journal.Submit { round; color; count })
  | Protocol.Step k -> mutate (Journal.Step k)
  | Protocol.Reconfigure { delta; n; delay } ->
      mutate (Journal.Reconfigure { delta; n; delay })
  | Protocol.Open name -> (
      match find_session h name with
      | Some s when s.wedged = None ->
          if s.name = current.name then
            Reply [ Printf.sprintf "ok attached %s (already current)" name ]
          else Switch (s, [ Printf.sprintf "ok attached %s (already open)" name ])
      | _ -> (
          match try_open h name with
          | Ok s -> Switch (s, greeting s)
          | Error diag -> Reply [ "err open: " ^ diag ]))
  | Protocol.Attach name -> (
      match find_session h name with
      | Some s -> Switch (s, [ "ok attached " ^ name ])
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
