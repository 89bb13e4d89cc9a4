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

(* A checkpoint file (doc/SERVICE.md, "Checkpoint format"):

     line 1: the snapshot line, byte for byte the [state] reply;
     line 2: serve_machine 1 ops=N offset=B lines=L journal=H state=S digest=D

   Line 2 holds the session's machine state [S] ({!Session.save} in the
   {!Wire} code), taken after op N, when the journal was B bytes and L
   lines long with prefix hash H.  D hashes every byte before
   " digest=", line 1 included.  A session that cannot save its state
   (no journal writer, or a policy without a codec) writes line 1
   only: an anchor, as every checkpoint was before line 2 existed. *)
type machine = { ops : int; anchor : Journal.anchor; state : string }

let encode_checkpoint w (snapshot : Snapshot.t) ~machine =
  Wire.clear w;
  Snapshot.add_line w snapshot;
  Wire.add_char w '\n';
  match machine with
  | None -> ()
  | Some ((anchor : Journal.anchor), session) ->
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

(* Commit whole files only: an exception before the rename removes the
   temp file instead of committing it. *)
let temp_prefix = "checkpoint.json.tmp."

let write_checkpoint dir w =
  let temp = Filename.concat dir (temp_prefix ^ string_of_int (Unix.getpid ())) in
  match
    Out_channel.with_open_bin temp (fun oc -> Wire.output oc w);
    Sys.rename temp (checkpoint_path dir)
  with
  | () -> ()
  | exception e ->
      (try Sys.remove temp with Sys_error _ -> ());
      raise e

(* Temp files a kill between open and rename left behind; each process
   names its own, so they would pile up across restarts. *)
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

(* A checkpoint as the full replay's anchor: its snapshot line, once
   the whole file is known to be readable. *)
let load_checkpoint path =
  if not (Sys.file_exists path) then Ok None
  else
    let contents = In_channel.with_open_bin path In_channel.input_all in
    if contents = "" then Error (Printf.sprintf "checkpoint %s: empty" path)
    else
      match Snapshot.of_line contents with
      | Error e -> Error (Printf.sprintf "checkpoint %s: %s" path e)
      | Ok s -> (
          match String.index_opt contents '\n' with
          | Some i when i < String.length contents - 1 ->
              Result.map (fun _ -> Some s) (parse_machine path contents ~start:(i + 1))
          | _ -> Ok (Some s))

let session_label name (header : Journal.header) =
  let suffix = if name = default_session then "" else "-" ^ name in
  "serve" ^ suffix ^ "-" ^ header.policy

let session_of_header name (header : Journal.header) =
  match factory_of_id header.policy with
  | Error e -> raise (Corrupt e)
  | Ok factory ->
      let cfg = Engine.config ~n:header.n ~mini_rounds:header.mini_rounds () in
      let session =
        Session.create ~name:(session_label name header) cfg
          ~delta:header.delta ~delay:header.delay factory
      in
      (* replay must be silent: no ambient heartbeat picked up at
         create may observe replayed rounds *)
      Session.set_heartbeat session None;
      session

(* The restore fast path's start, from the current checkpoint's bytes:
   its machine state, taken only when line 2 passes its digest, the
   journal still begins with the prefix the state was taken at, and the
   loaded state's snapshot line is line 1, byte for byte.  The digest
   covers line 1, so line 1 is exactly what the writer wrote and is not
   parsed here. *)
let load_machine name jpath cpath contents =
  match String.index_opt contents '\n' with
  | None -> None
  | Some eol -> (
      match parse_machine cpath contents ~start:(eol + 1) with
      | Error _ -> None
      | Ok m -> (
          match Journal.resume jpath m.anchor with
          | None -> None
          | Some (header, position) -> (
              match factory_of_id header.policy with
              | Error _ -> None
              | Ok factory -> (
                  let cfg =
                    Engine.config ~n:header.n ~mini_rounds:header.mini_rounds ()
                  in
                  let reader =
                    Wire.reader m.state ~pos:0 ~stop:(String.length m.state)
                  in
                  match
                    Session.load ~name:(session_label name header) cfg factory
                      reader
                  with
                  | Error _ -> None
                  | Ok session ->
                      Session.set_heartbeat session None;
                      let line =
                        Snapshot.to_line (Snapshot.of_session ~ops:m.ops session)
                      in
                      if String.equal line (String.sub contents 0 eol) then
                        Some (m.ops, header, position, session)
                      else None))))

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

(* Replay state, threaded through {!Journal.fold} one op at a time.
   When the replay passes an anchor's journal position, the states must
   agree — a mismatch means the journal and that checkpoint tell
   different stories.  Each verdict carries the replay-side snapshot
   taken at the anchor's op count, so divergence diagnostics can show
   both witnesses. *)
type replay = {
  header : Journal.header;
  replayed : Session.t;
  mutable applied : int;
  mutable verdicts : (string * Snapshot.t * Snapshot.t * bool) list;
}

let replay_op anchors r op =
  (match apply_to r.replayed op with
  | Ok () -> ()
  | Error e ->
      raise
        (Corrupt
           (Printf.sprintf "journal replay: op %d refused: %s" (r.applied + 1) e)));
  r.applied <- r.applied + 1;
  List.iter
    (fun (which, (ckpt : Snapshot.t)) ->
      if ckpt.ops = r.applied then begin
        let now = Snapshot.of_session ~ops:r.applied r.replayed in
        r.verdicts <- (which, ckpt, now, Snapshot.equal now ckpt) :: r.verdicts
      end)
    anchors;
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

(* The tiered restore ladder (doc/SERVICE.md, "Failure matrix").  Its
   fast path starts from the current checkpoint's machine state and
   replays only the journal suffix; anything that keeps it from
   starting there runs the full replay from op 0. *)
let restore h name ~dir jpath =
  remove_stale_temps dir;
  let cpath = checkpoint_path dir in
  let ppath = checkpoint_prev_path dir in
  let fast =
    match In_channel.with_open_bin cpath In_channel.input_all with
    | contents -> load_machine name jpath cpath contents
    | exception Sys_error _ -> None
  in
  let checkpoints, from, init, anchors, start_ops, ckpt_ops =
    match fast with
    | Some (ops, header, position, session) ->
        (* the current checkpoint is verified and every other anchor
           lies below it: the suffix has nothing to be checked against,
           and the previous checkpoint, the full replay's arbitration
           witness, is not read *)
        ( [],
          Some (header, position),
          (fun header -> { header; replayed = session; applied = ops; verdicts = [] }),
          [],
          ops,
          ops )
    | None ->
        (* both anchors are read before the replay, which checks them as
           it passes their op counts; an unreadable one is set aside
           only once the journal has loaded *)
        let cur = ("checkpoint", cpath, load_checkpoint cpath) in
        let prev = ("previous checkpoint", ppath, load_checkpoint ppath) in
        ( [ cur; prev ],
          None,
          (fun header ->
            {
              header;
              replayed = session_of_header name header;
              applied = 0;
              verdicts = [];
            }),
          List.filter_map
            (function which, _, Ok (Some c) -> Some (which, c) | _ -> None)
            [ cur; prev ],
          0,
          match cur with _, _, Ok (Some c) -> c.Snapshot.ops | _ -> 0 )
  in
  match Journal.fold ?from jpath ~init ~f:(replay_op anchors) with
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
      (* tier 2: checkpoints are derived state — an unreadable one is
         quarantined out of the restore path and replay carries on *)
      List.iter
        (function
          | which, path, Error e ->
              let target = quarantine `Rename path in
              let msg =
                Printf.sprintf "quarantined unreadable %s (%s)%s" which e
                  (match target with Some t -> " to " ^ t | None -> "")
              in
              recovery_event ~counter:h.counters.quarantined
                ~name:("checkpoint-" ^ name) ~reason:msg;
              notice "%s" msg
          | _ -> ())
        checkpoints;
      List.iter
        (fun (which, (c : Snapshot.t)) ->
          if c.ops > r.applied then
            refuse h ~name
              (Printf.sprintf
                 "journal %s holds %d op%s but the %s was committed at op %d: \
                  acked ops are missing from the journal"
                 jpath r.applied
                 (if r.applied = 1 then "" else "s")
                 which c.ops))
        anchors;
      let verdicts = List.rev r.verdicts in
      let agreed which =
        List.exists (fun (w, _, _, ok) -> w = which && ok) verdicts
      in
      let diverged which =
        List.find_opt (fun (w, _, _, ok) -> w = which && not ok) verdicts
      in
      (match diverged "checkpoint" with
      | Some (_, ckpt, now, _) ->
          if agreed "previous checkpoint" then begin
            (* two witnesses: the replay and the previous checkpoint
               agree, so the current checkpoint is the corrupt artifact *)
            let target = quarantine `Rename cpath in
            let msg =
              Printf.sprintf
                "quarantined checkpoint diverging from journal replay at op \
                 %d%s (previous checkpoint agrees with the replay)"
                ckpt.Snapshot.ops
                (match target with Some t -> " to " ^ t | None -> "")
            in
            recovery_event ~counter:h.counters.quarantined
              ~name:("checkpoint-" ^ name) ~reason:msg;
            notice "%s" msg
          end
          else
            refuse h ~name
              (Format.asprintf
                 "checkpoint diverges from journal replay at op %d:@ \
                  checkpoint %a@ replay %a"
                 ckpt.Snapshot.ops Snapshot.pp ckpt Snapshot.pp now)
      | None -> (
          match diverged "previous checkpoint" with
          | Some (_, ckpt, _, _) ->
              (* the dispensable anchor lies but the current one agrees
                 (or is absent): drop the stale witness, keep serving *)
              let target = quarantine `Rename ppath in
              let msg =
                Printf.sprintf
                  "quarantined previous checkpoint diverging from journal \
                   replay at op %d%s"
                  ckpt.Snapshot.ops
                  (match target with Some t -> " to " ^ t | None -> "")
              in
              recovery_event ~counter:h.counters.quarantined
                ~name:("checkpoint-" ^ name) ~reason:msg;
              notice "%s" msg
          | None -> ()));
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
        ckpt_ops;
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
  Session.set_heartbeat s.session h.config.heartbeat;
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
  match s.dir with
  | None -> None
  | Some dir ->
      let path = checkpoint_path dir in
      (* rotate: the previous checkpoint is the arbitration witness of
         the divergence tier *)
      if Sys.file_exists path then Sys.rename path (checkpoint_prev_path dir);
      let snapshot = Snapshot.of_session ~ops:s.ops s.session in
      let machine =
        match s.writer with
        | Some w when Session.checkpointable s.session ->
            Some (Journal.anchor w, s.session)
        | _ -> None
      in
      encode_checkpoint h.checkpoint_buffer snapshot ~machine;
      write_checkpoint dir h.checkpoint_buffer;
      s.ckpt_ops <- s.ops;
      Some snapshot

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
  let mutate op =
    match current.wedged with
    | Some reason ->
        Reply
          [
            Printf.sprintf
              "err session %s wedged (%s); `open %s` to recover it from its \
               journal"
              current.name reason current.name;
          ]
    | None -> (
        match apply current op with
        | Ok () ->
            commit h current op;
            Reply [ ack current.session op ]
        | Error e -> Reply [ "err " ^ e ])
  in
  match cmd with
  | Protocol.Help ->
      Reply
        (String.split_on_char '\n' Protocol.grammar
        |> List.map (fun l -> "ok " ^ l))
  | Protocol.State -> Reply [ Snapshot.to_line (session_snapshot current) ]
  | Protocol.Checkpoint -> (
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
