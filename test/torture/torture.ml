open Rrs_service
module Rng = Rrs_prng.Rng
module Metrics = Rrs_obs.Metrics

type verdict = {
  case : string;
  tier : int;
  contained : bool;
  diverged : bool;
  restored_ops : int;
  detail : string;
}

type summary = {
  cases : int;
  contained : int;
  uncontained : int;
  divergences : int;
  tiers : int array;
}

let summarize verdicts =
  let tiers = Array.make 4 0 in
  let cases = List.length verdicts in
  let contained = ref 0 and diverged = ref 0 in
  List.iter
    (fun v ->
      if v.tier >= 0 && v.tier < 4 then tiers.(v.tier) <- tiers.(v.tier) + 1;
      if v.contained then incr contained;
      if v.diverged then incr diverged)
    verdicts;
  {
    cases;
    contained = !contained;
    uncontained = cases - !contained;
    divergences = !diverged;
    tiers;
  }

(* ---- deterministic op sequences ----------------------------------- *)

let ops_of_seed ?(count = 48) ~colors seed =
  let rng = Rng.create ~seed in
  (* track the model round so every submit lands at or after it *)
  let round = ref 0 in
  List.init count (fun _ ->
      let roll = Rng.int rng 10 in
      if roll < 7 then
        Journal.Submit
          {
            round = !round + Rng.int rng 3;
            color = Rng.int rng colors;
            count = 1 + Rng.int rng 4;
          }
      else if roll < 9 then begin
        let k = 1 + Rng.int rng 4 in
        round := !round + k;
        Journal.Step k
      end
      else
        Journal.Reconfigure
          {
            delta = None;
            n = None;
            delay = [ (Rng.int rng colors, 2 + Rng.int rng 10) ];
          })

(* ---- the snapshot line, read back --------------------------------- *)

module Json = Rrs_obs.Json

let ( let* ) = Result.bind

let snapshot_of_line s =
  let line =
    match String.index_opt s '\n' with Some i -> String.sub s 0 i | None -> s
  in
  let* json = Json.parse line in
  let field name conv =
    match Json.member name json with
    | None -> Error (Printf.sprintf "snapshot: missing field %S" name)
    | Some v ->
        Result.map_error (Printf.sprintf "snapshot: field %S: %s" name) (conv v)
  in
  let int name = field name Json.to_int in
  let ints name =
    field name (fun v ->
        let* items = Json.to_list v in
        List.fold_right
          (fun item acc ->
            let* acc = acc in
            let* i = Json.to_int item in
            Ok (i :: acc))
          items (Ok [])
        |> Result.map Array.of_list)
  in
  let* version = int "version" in
  if version <> Snapshot.version then
    Error (Printf.sprintf "snapshot: version %d (want %d)" version Snapshot.version)
  else
    let* ops = int "ops" in
    let* round = int "round" in
    let* n = int "n" in
    let* delta = int "delta" in
    let* delay = ints "delay" in
    let* reconfigurations = int "reconfigurations" in
    let* reconfig_cost = int "reconfig_cost" in
    let* executed = int "executed" in
    let* dropped = int "dropped" in
    let* pending_jobs = int "pending_jobs" in
    let* future_arrivals = int "future_arrivals" in
    let* cache = ints "cache" in
    Ok
      {
        Snapshot.version;
        ops;
        round;
        n;
        delta;
        delay;
        reconfigurations;
        reconfig_cost;
        executed;
        dropped;
        pending_jobs;
        future_arrivals;
        cache;
      }

let pp_snapshot fmt (t : Snapshot.t) =
  let ints a = String.concat "," (Array.to_list (Array.map string_of_int a)) in
  Format.fprintf fmt
    "round %d: n=%d delta=%d delay=[%s] pending=%d future=%d executed=%d \
     dropped=%d recolorings=%d reconfig_cost=%d cache=[%s] (ops %d, version %d)"
    t.round t.n t.delta (ints t.delay) t.pending_jobs t.future_arrivals
    t.executed t.dropped t.reconfigurations t.reconfig_cost (ints t.cache) t.ops
    t.version

(* ---- ground truth ------------------------------------------------- *)

let ephemeral (config : Server.config) =
  {
    config with
    Server.checkpoint_dir = None;
    crash_after = None;
    metrics = None;
    heartbeat = None;
  }

let straight_line config ops =
  let h = Server.host (ephemeral config) in
  let s = Server.open_session h Server.default_session in
  List.iter
    (fun op ->
      match Server.apply_op s op with
      | Ok _ -> Server.commit h s op
      (* a refused op is never journaled by the real server either:
         the client gets an [err ...] line and nothing is committed *)
      | Error _ -> ())
    ops;
  let snapshot = Server.session_snapshot s in
  Server.abandon_session h s;
  snapshot

(* The ops the server journals out of [ops]: the engine refuses the
   others, and a refused op is never journaled. *)
let accepted config ops =
  let h = Server.host (ephemeral config) in
  let s = Server.open_session h Server.default_session in
  let kept =
    List.filter
      (fun op ->
        match Server.apply_op s op with
        | Ok () ->
            Server.commit h s op;
            true
        | Error _ -> false)
      ops
  in
  Server.abandon_session h s;
  kept

(* ---- fixtures ----------------------------------------------------- *)

let build_fixture (config : Server.config) ops dir =
  let h =
    Server.host
      {
        config with
        Server.checkpoint_dir = Some dir;
        crash_after = None;
        metrics = None;
        heartbeat = None;
      }
  in
  let s = Server.open_session h Server.default_session in
  List.iter
    (fun op ->
      match Server.apply_op s op with
      | Ok _ -> Server.commit h s op
      | Error _ -> ())
    ops;
  (* end like a kill: no final checkpoint, journal tail past the
     rotated anchors *)
  Server.abandon_session h s

(* ---- mutators ----------------------------------------------------- *)

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path contents =
  Out_channel.with_open_bin path (fun oc ->
      Out_channel.output_string oc contents)

let truncate_file path k = Unix.truncate path k

let flip_byte path k =
  let contents = Bytes.of_string (read_file path) in
  Bytes.set contents k (Char.chr (Char.code (Bytes.get contents k) lxor 0x20));
  write_file path (Bytes.to_string contents)

let duplicate_line path i =
  let contents = read_file path in
  let lines = String.split_on_char '\n' contents in
  let out = Buffer.create (String.length contents + 128) in
  List.iteri
    (fun j line ->
      if j > 0 then Buffer.add_char out '\n';
      Buffer.add_string out line;
      if j = i - 1 then begin
        Buffer.add_char out '\n';
        Buffer.add_string out line
      end)
    lines;
  write_file path (Buffer.contents out)

(* ---- restore + classify ------------------------------------------- *)

let checkpoint_file dir = Filename.concat dir "checkpoint.json"

let restore_case ~case ?ops (config : Server.config) dir =
  let metrics = Metrics.create () in
  let h =
    Server.host
      {
        config with
        Server.checkpoint_dir = Some dir;
        crash_after = None;
        metrics = Some metrics;
        heartbeat = None;
      }
  in
  let counter name = Metrics.value (Metrics.counter metrics name) in
  (* without the acked ops, the truth is the state the directory's
     checkpoint recorded before the restore touched anything *)
  let recorded =
    match ops with
    | Some _ -> None
    | None -> (
        match snapshot_of_line (read_file (checkpoint_file dir)) with
        | Ok s -> Some s
        | Error _ | (exception Sys_error _) -> None)
  in
  let verdict ~tier ~diverged ~restored_ops detail =
    { case; tier; contained = not diverged; diverged; restored_ops; detail }
  in
  match Server.open_session h Server.default_session with
  | exception Server.Corrupt detail ->
      verdict ~tier:3 ~diverged:false ~restored_ops:0 detail
  | exception e ->
      {
        (verdict ~tier:0 ~diverged:false ~restored_ops:0
           ("uncontained: " ^ Printexc.to_string e))
        with
        contained = false;
      }
  | s ->
      let tier =
        if counter "serve_recovery_checkpoint_quarantined" > 0 then 2
        else if counter "serve_recovery_torn_tail" > 0 then 1
        else 0
      in
      let restored = Server.session_snapshot s in
      let restored_ops = Server.session_ops s in
      Server.abandon_session h s;
      (* the restore's own contract: its state is the straight line of
         the first ops the journal acked, as many as it restored *)
      let expected =
        match ops with
        | Some ops -> (
            match
              straight_line config
                (List.filteri (fun i _ -> i < restored_ops) (accepted config ops))
            with
            | expected -> Ok expected
            | exception e -> Error ("straight line refused: " ^ Printexc.to_string e))
        | None -> (
            match recorded with
            | Some s -> Ok s
            | None -> Error "no acked ops and no checkpoint to compare with")
      in
      let diverged, detail =
        match expected with
        | Error e -> (true, e)
        | Ok expected ->
            if Snapshot.equal restored expected then (false, "")
            else
              ( true,
                Format.asprintf "restored %a@ expected %a" pp_snapshot restored
                  pp_snapshot expected )
      in
      verdict ~tier ~diverged ~restored_ops detail

(* ---- campaigns ---------------------------------------------------- *)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun e -> rm_rf (Filename.concat path e)) (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let mkdir_fresh dir =
  rm_rf dir;
  Unix.mkdir dir 0o755

let copy_dir src dst =
  Array.iter
    (fun f ->
      let from = Filename.concat src f in
      if not (Sys.is_directory from) then
        write_file (Filename.concat dst f) (read_file from))
    (Sys.readdir src)

(* The journal segments in the directory, oldest first: (start, file). *)
let segments dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter_map (fun f ->
         Option.map (fun start -> (start, f)) (Journal.segment_of_name f))
  |> List.sort compare

let checkpoint_ops dir file =
  match snapshot_of_line (read_file (Filename.concat dir file)) with
  | Ok s -> s.Snapshot.ops
  | Error _ | (exception Sys_error _) -> 0

(* Whether a restore from the fixture's current checkpoint reads the
   segment that starts at [start]. *)
let read_by_restore fdir start = start >= checkpoint_ops fdir "checkpoint.json"

let expect_tier tier (v : verdict) =
  if v.tier <> tier && v.contained then
    {
      v with
      contained = false;
      detail = Printf.sprintf "expected tier %d, classified tier %d" tier v.tier;
    }
  else v

let with_fixture config ~ops ~dir body =
  let fdir = Filename.concat dir "fixture" in
  mkdir_fresh fdir;
  build_fixture config ops fdir;
  let cdir = Filename.concat dir "case" in
  let case name mutate =
    mkdir_fresh cdir;
    copy_dir fdir cdir;
    mutate cdir;
    let v = restore_case ~case:name ~ops config cdir in
    rm_rf cdir;
    v
  in
  let verdicts = body ~fdir ~case in
  rm_rf fdir;
  verdicts

let byte_points ~stride len ~upto =
  List.sort_uniq compare
    (List.filter (fun k -> k <= upto) (List.init ((len / stride) + 1) (fun i -> min (i * stride) len)))

let journal_truncate_campaign ?(stride = 1) config ~ops ~dir =
  with_fixture config ~ops ~dir @@ fun ~fdir ~case ->
  List.concat_map
    (fun (_, f) ->
      let len = String.length (read_file (Filename.concat fdir f)) in
      List.map
        (fun k ->
          case
            (Printf.sprintf "journal-truncate@%s:%d" f k)
            (fun cdir -> truncate_file (Filename.concat cdir f) k))
        (byte_points ~stride len ~upto:len))
    (segments fdir)

let journal_flip_campaign ?(stride = 1) config ~ops ~dir =
  with_fixture config ~ops ~dir @@ fun ~fdir ~case ->
  List.concat_map
    (fun (_, f) ->
      let len = String.length (read_file (Filename.concat fdir f)) in
      List.map
        (fun k ->
          case
            (Printf.sprintf "journal-flip@%s:%d" f k)
            (fun cdir -> flip_byte (Filename.concat cdir f) k))
        (byte_points ~stride len ~upto:(len - 1)))
    (segments fdir)

let lines_of path = In_channel.with_open_bin path In_channel.input_lines

let journal_dup_campaign config ~ops ~dir =
  with_fixture config ~ops ~dir @@ fun ~fdir ~case ->
  (* every line, the segment's header line included *)
  List.concat_map
    (fun (_, f) ->
      List.mapi
        (fun i _ ->
          case
            (Printf.sprintf "journal-dup@%s:%d" f (i + 1))
            (fun cdir -> duplicate_line (Filename.concat cdir f) (i + 1)))
        (lines_of (Filename.concat fdir f)))
    (segments fdir)

(* The op of an op line with another value — a valid op, with the old
   line's check kept. *)
let edited line =
  match String.index_opt line '#' with
  | None -> None
  | Some i -> (
      let check = String.sub line i (String.length line - i) in
      let op =
        match Journal.op_of_line (String.sub line 0 i) with
        | Ok (Journal.Submit r) ->
            Some (Journal.Submit { r with count = (if r.count > 1 then r.count - 1 else 2) })
        | Ok (Journal.Step k) -> Some (Journal.Step (k + 1))
        | Ok (Journal.Reconfigure r) ->
            Some
              (Journal.Reconfigure
                 { r with delay = List.map (fun (c, b) -> (c, b + 1)) r.delay })
        | Error _ -> None
      in
      match op with
      | Some op -> Some (Journal.op_to_line op ^ " " ^ check)
      | None -> None)

(* One case per op line of every segment: rewrite the segment's lines
   with [change] at that line.  A change in a segment the restore from
   the current checkpoint reads fails a check (tier 3); in one it does
   not read, it changes nothing restored (tier 0). *)
let per_line_campaign name ~change config ~ops ~dir =
  with_fixture config ~ops ~dir @@ fun ~fdir ~case ->
  List.concat_map
    (fun (start, f) ->
      let lines = lines_of (Filename.concat fdir f) in
      List.concat
        (List.mapi
           (fun i _ ->
             (* line 0 is the segment's header *)
             match if i = 0 then None else change (Array.of_list lines) i with
             | None -> []
             | Some lines ->
                 let v =
                   case
                     (Printf.sprintf "%s@%s:%d" name f (i + 1))
                     (fun cdir ->
                       write_file (Filename.concat cdir f)
                         (String.concat "\n" (Array.to_list lines) ^ "\n"))
                 in
                 [ expect_tier (if read_by_restore fdir start then 3 else 0) v ])
           lines))
    (segments fdir)

let journal_edit_campaign =
  per_line_campaign "journal-edit" ~change:(fun lines i ->
      Option.map
        (fun line ->
          let lines = Array.copy lines in
          lines.(i) <- line;
          lines)
        (edited lines.(i)))

let journal_reorder_campaign =
  per_line_campaign "journal-reorder" ~change:(fun lines i ->
      if i + 1 >= Array.length lines then None
      else begin
        let lines = Array.copy lines in
        let line = lines.(i) in
        lines.(i) <- lines.(i + 1);
        lines.(i + 1) <- line;
        Some lines
      end)

(* At each segment's edges: its final newline dropped, its file cut to
   nothing and inside its header line, its first and last bytes
   flipped, and the ends of two consecutive segments swapped for each
   other's.  Every case must be contained. *)
let segment_boundary_campaign config ~ops ~dir =
  with_fixture config ~ops ~dir @@ fun ~fdir ~case ->
  List.concat_map
    (fun (_, f) ->
      let len = String.length (read_file (Filename.concat fdir f)) in
      let at cdir = Filename.concat cdir f in
      [
        case (Printf.sprintf "segment-truncate@%s:%d" f (len - 1))
          (fun cdir -> truncate_file (at cdir) (len - 1));
        case (Printf.sprintf "segment-truncate@%s:0" f)
          (fun cdir -> truncate_file (at cdir) 0);
        case (Printf.sprintf "segment-truncate@%s:10" f)
          (fun cdir -> truncate_file (at cdir) (min 10 len));
        case (Printf.sprintf "segment-flip@%s:0" f)
          (fun cdir -> flip_byte (at cdir) 0);
        case (Printf.sprintf "segment-flip@%s:%d" f (len - 2))
          (fun cdir -> flip_byte (at cdir) (len - 2));
      ])
    (segments fdir)

(* Every segment removed in turn: tier 0 when the current checkpoint
   starts past it (no restore reads it), tier 3 when no verified
   checkpoint covers the ops it held.  Then an extra segment: one at
   the op count where the journal ends, which must continue its chain
   and does not, and one past that end, which says ops are missing
   (tier 3 both). *)
let segment_presence_campaign config ~ops ~dir =
  with_fixture config ~ops ~dir @@ fun ~fdir ~case ->
  let segs = segments fdir in
  let missing =
    List.map
      (fun (start, f) ->
        expect_tier
          (if read_by_restore fdir start then 3 else 0)
          (case (Printf.sprintf "segment-missing@%s" f) (fun cdir ->
               Sys.remove (Filename.concat cdir f))))
      segs
  in
  let last_start, last = List.nth segs (List.length segs - 1) in
  let body = read_file (Filename.concat fdir last) in
  let ends = last_start + max 0 (List.length (lines_of (Filename.concat fdir last)) - 1) in
  let extra at expected =
    let name = Journal.segment_name at in
    expect_tier expected
      (case (Printf.sprintf "segment-extra@%s" name) (fun cdir ->
           write_file (Filename.concat cdir name) body))
  in
  (* a segment holding no op ends where it starts: nothing can follow it *)
  missing
  @ (if ends > last_start then [ extra ends 3 ] else [])
  @ [ extra (ends + 1000) 3 ]

(* A kill at each step of the next checkpoint commit, which rotates the
   journal into the file of the segment it retires: the commit's end
   state is made by the real server, and each intermediate directory
   from the fixture's files and its.  Every one restores every
   journaled op; a new segment cut short in its header, as the create
   path of a session's first rotations can leave it, is a torn tail
   (tier 1). *)
let kill_rotation_campaign config ~ops ~dir =
  let fdir = Filename.concat dir "fixture" and final = Filename.concat dir "final" in
  mkdir_fresh fdir;
  build_fixture config ops fdir;
  mkdir_fresh final;
  copy_dir fdir final;
  let h = Server.host { config with Server.checkpoint_dir = Some final; metrics = None } in
  let s = Server.open_session h Server.default_session in
  let journaled = Server.session_ops s in
  ignore (Server.checkpoint_session h s);
  Server.abandon_session h s;
  let segment = Journal.segment_name journaled in
  (* the segment the commit reuses: the oldest, before the current
     checkpoint's *)
  let spare =
    match segments fdir with
    | (start, f) :: _ when start < checkpoint_ops fdir "checkpoint.json" -> f
    | _ -> failwith "kill-rotation: the fixture has no segment to reuse"
  in
  let temp = "checkpoint.json.tmp.1" and journal_temp = Journal.temp_prefix ^ "1" in
  let cdir = Filename.concat dir "case" in
  let from d f = read_file (Filename.concat d f) in
  let put c f contents = write_file (Filename.concat c f) contents in
  let rm c f = Sys.remove (Filename.concat c f) in
  let mv c a b = Sys.rename (Filename.concat c a) (Filename.concat c b) in
  let rotated c =
    rm c spare;
    put c segment (from final segment)
  in
  let steps =
    [
      ("segment-created", fun c -> put c segment "");
      ("spare-renamed", fun c -> mv c spare journal_temp);
      ( "spare-rewritten",
        fun c ->
          rm c spare;
          put c journal_temp (from final segment) );
      ("segment-header", rotated);
      ( "prev-to-temp",
        fun c ->
          rotated c;
          mv c "checkpoint.json.prev" temp );
      ( "temp-written",
        fun c ->
          rotated c;
          rm c "checkpoint.json.prev";
          put c temp (from final "checkpoint.json") );
      ( "current-to-prev",
        fun c ->
          rotated c;
          rm c "checkpoint.json.prev";
          put c temp (from final "checkpoint.json");
          mv c "checkpoint.json" "checkpoint.json.prev" );
      ( "committed",
        fun c ->
          rm_rf c;
          Unix.mkdir c 0o755;
          copy_dir final c );
    ]
  in
  let verdicts =
    List.map
      (fun (step, mutate) ->
        mkdir_fresh cdir;
        copy_dir fdir cdir;
        mutate cdir;
        let v = restore_case ~case:("kill-rotation@" ^ step) ~ops config cdir in
        let temps =
          List.filter
            (fun f -> f = temp || f = journal_temp)
            (Array.to_list (Sys.readdir cdir))
        in
        rm_rf cdir;
        let v = expect_tier (if step = "segment-created" then 1 else 0) v in
        if v.contained && v.restored_ops <> journaled then
          {
            v with
            contained = false;
            detail =
              Printf.sprintf "restored %d ops of the %d journaled" v.restored_ops
                journaled;
          }
        else if v.contained && temps <> [] then
          { v with contained = false; detail = "a temp file survived the restore" }
        else v)
      steps
  in
  rm_rf fdir;
  rm_rf final;
  verdicts

let checkpoint_campaign ?(stride = 1) config ~ops ~dir =
  with_fixture config ~ops ~dir @@ fun ~fdir ~case ->
  let cpath = Filename.concat fdir "checkpoint.json" in
  let len = String.length (read_file cpath) in
  List.map
    (fun k ->
      case
        (Printf.sprintf "checkpoint-truncate@%d" k)
        (fun cdir ->
          truncate_file (Filename.concat cdir "checkpoint.json") k))
    (byte_points ~stride len ~upto:len)
  @ List.map
      (fun k ->
        case
          (Printf.sprintf "checkpoint-flip@%d" k)
          (fun cdir -> flip_byte (Filename.concat cdir "checkpoint.json") k))
      (byte_points ~stride len ~upto:(len - 1))

let prefix_campaign ?(torn = false) (config : Server.config) ~ops ~dir =
  let header =
    {
      Journal.policy = config.policy;
      n = config.n;
      delta = config.delta;
      delay = config.delay;
      mini_rounds = config.mini_rounds;
    }
  in
  let arr = Array.of_list ops in
  let n = Array.length arr in
  let cdir = Filename.concat dir "prefix" in
  List.init (n + 1) (fun k ->
      mkdir_fresh cdir;
      let w = Journal.create cdir header in
      for i = 0 to k - 1 do
        Journal.append w arr.(i)
      done;
      Journal.close w;
      if torn && k < n then begin
        (* the interrupted (k+1)-th append: half its line, no newline *)
        let next = Journal.op_to_line arr.(k) in
        let oc =
          Out_channel.open_gen [ Open_append; Open_binary ] 0o644
            (Filename.concat cdir (Journal.segment_name 0))
        in
        Out_channel.output_string oc (String.sub next 0 (String.length next / 2));
        Out_channel.close oc
      end;
      let name =
        Printf.sprintf "kill-at-op-%d%s" k (if torn then "-torn" else "")
      in
      let v =
        restore_case ~case:name ~ops config cdir
        |> expect_tier (if torn && k < n then 1 else 0)
      in
      rm_rf cdir;
      if v.contained && v.restored_ops <> k then
        {
          v with
          contained = false;
          detail = Printf.sprintf "restored %d ops of the %d journaled" v.restored_ops k;
        }
      else v)
