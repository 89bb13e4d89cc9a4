open Rrs_service
module Rng = Rrs_prng.Rng
module Metrics = Rrs_obs.Metrics

type verdict = {
  case : string;
  tier : int;
  contained : bool;
  diverged : bool;
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

let config_of_header config (header : Journal.header) =
  {
    config with
    Server.policy = header.policy;
    n = header.n;
    delta = header.delta;
    delay = header.delay;
    mini_rounds = header.mini_rounds;
  }

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

let journal_file dir = Filename.concat dir "journal.jsonl"

(* Every op the journal holds, in order; a torn tail is dropped as
   restore drops it. *)
let journal_ops path =
  Journal.fold path
    ~init:(fun header -> (header, []))
    ~f:(fun (header, ops) op -> (header, op :: ops))
  |> Result.map (fun ((header, ops), _tear, _end) -> (header, List.rev ops))

let restore_case ~case (config : Server.config) dir =
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
  match Server.open_session h Server.default_session with
  | exception Server.Corrupt detail ->
      { case; tier = 3; contained = true; diverged = false; detail }
  | exception e ->
      {
        case;
        tier = 0;
        contained = false;
        diverged = false;
        detail = "uncontained: " ^ Printexc.to_string e;
      }
  | s ->
      let tier =
        if counter "serve_recovery_checkpoint_quarantined" > 0 then 2
        else if counter "serve_recovery_torn_tail" > 0 then 1
        else 0
      in
      let restored = Server.session_snapshot s in
      Server.abandon_session h s;
      (* the restore's own contract: its state must be the straight
         line of whatever ops the (possibly mutated) journal holds *)
      let diverged, detail =
        match journal_ops (journal_file dir) with
        | Error e ->
            (true, "journal unreadable after restore: "
                   ^ Journal.describe_load_error ~path:(journal_file dir) e)
        | Ok (header, ops) -> (
            match straight_line (config_of_header config header) ops with
            | expected ->
                if Snapshot.equal restored expected then (false, "")
                else
                  ( true,
                    Format.asprintf "restored %a@ expected %a" pp_snapshot
                      restored pp_snapshot expected )
            | exception e ->
                (true, "straight line refused: " ^ Printexc.to_string e))
      in
      { case; tier; contained = not diverged; diverged; detail }

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

let fixture_files = [ "journal.jsonl"; "checkpoint.json"; "checkpoint.json.prev" ]

let copy_fixture src dst =
  List.iter
    (fun f ->
      let from = Filename.concat src f in
      if Sys.file_exists from then
        write_file (Filename.concat dst f) (read_file from))
    fixture_files

let with_fixture config ~ops ~dir body =
  let fdir = Filename.concat dir "fixture" in
  mkdir_fresh fdir;
  build_fixture config ops fdir;
  let cdir = Filename.concat dir "case" in
  let case name mutate =
    mkdir_fresh cdir;
    copy_fixture fdir cdir;
    mutate cdir;
    let v = restore_case ~case:name config cdir in
    rm_rf cdir;
    v
  in
  let verdicts = body ~fdir ~case in
  rm_rf fdir;
  verdicts

let journal_truncate_campaign ?(stride = 1) config ~ops ~dir =
  with_fixture config ~ops ~dir @@ fun ~fdir ~case ->
  let len = String.length (read_file (journal_file fdir)) in
  let points = List.init ((len / stride) + 1) (fun i -> min (i * stride) len) in
  let points = List.sort_uniq compare points in
  List.map
    (fun k ->
      case
        (Printf.sprintf "journal-truncate@%d" k)
        (fun cdir -> truncate_file (journal_file cdir) k))
    points

let journal_flip_campaign ?(stride = 1) config ~ops ~dir =
  with_fixture config ~ops ~dir @@ fun ~fdir ~case ->
  let len = String.length (read_file (journal_file fdir)) in
  let points =
    List.filter (fun k -> k < len) (List.init (len / stride) (fun i -> i * stride))
  in
  List.map
    (fun k ->
      case
        (Printf.sprintf "journal-flip@%d" k)
        (fun cdir -> flip_byte (journal_file cdir) k))
    points

let journal_dup_campaign config ~ops ~dir =
  with_fixture config ~ops ~dir @@ fun ~fdir ~case ->
  let lines =
    In_channel.with_open_text (journal_file fdir) In_channel.input_lines
  in
  (* duplicate each op line (line 1 is the header; duplicating it is a
     flip-campaign-style header corruption, also covered here) *)
  List.mapi
    (fun i _ ->
      let line = i + 1 in
      case
        (Printf.sprintf "journal-dup@%d" line)
        (fun cdir -> duplicate_line (journal_file cdir) line))
    lines

let journal_edit_campaign config ~ops ~dir =
  with_fixture config ~ops ~dir @@ fun ~fdir ~case ->
  let checkpoint_ops file =
    match snapshot_of_line (read_file (Filename.concat fdir file)) with
    | Ok s -> s.Snapshot.ops
    | Error _ -> 0
  in
  let prev_ops = checkpoint_ops "checkpoint.json.prev" in
  let current_ops = checkpoint_ops "checkpoint.json" in
  let lines = String.split_on_char '\n' (read_file (journal_file fdir)) in
  (* line i holds op i: line 0 is the header, and the fixture's writer
     leaves no blank line *)
  List.concat
    (List.mapi
       (fun i line ->
         match String.split_on_char ' ' line with
         | [ "submit"; round; color; count ] ->
             let count = int_of_string count in
             let count = if count > 1 then count - 1 else count + 1 in
             let edited =
               List.mapi
                 (fun j l ->
                   if j = i then Printf.sprintf "submit %s %s %d" round color count
                   else l)
                 lines
             in
             let v =
               case
                 (Printf.sprintf "journal-edit@%d" i)
                 (fun cdir ->
                   write_file (journal_file cdir) (String.concat "\n" edited))
             in
             (* past the current checkpoint nothing witnesses the
                edit: the restore replays it (tier 0), and restore_case
                holds it to the straight line of the edited journal *)
             let expected =
               if i <= prev_ops then 3 else if i <= current_ops then 2 else 0
             in
             if v.tier <> expected && v.contained then
               [
                 {
                   v with
                   contained = false;
                   detail =
                     Printf.sprintf "expected tier %d, classified tier %d"
                       expected v.tier;
                 };
               ]
             else [ v ]
         | _ -> [])
       lines)

let checkpoint_campaign ?(stride = 1) config ~ops ~dir =
  with_fixture config ~ops ~dir @@ fun ~fdir ~case ->
  let cpath = Filename.concat fdir "checkpoint.json" in
  let len = String.length (read_file cpath) in
  let truncs =
    List.sort_uniq compare
      (List.init ((len / stride) + 1) (fun i -> min (i * stride) len))
  in
  let flips =
    List.filter (fun k -> k < len)
      (List.init (len / stride) (fun i -> i * stride))
  in
  List.map
    (fun k ->
      case
        (Printf.sprintf "checkpoint-truncate@%d" k)
        (fun cdir ->
          truncate_file (Filename.concat cdir "checkpoint.json") k))
    truncs
  @ List.map
      (fun k ->
        case
          (Printf.sprintf "checkpoint-flip@%d" k)
          (fun cdir -> flip_byte (Filename.concat cdir "checkpoint.json") k))
      flips

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
  let verdicts =
    List.init (n + 1) (fun k ->
        mkdir_fresh cdir;
        let buf = Buffer.create 4096 in
        Buffer.add_string buf (Journal.header_to_line header);
        Buffer.add_char buf '\n';
        for i = 0 to k - 1 do
          Buffer.add_string buf (Journal.op_to_line arr.(i));
          Buffer.add_char buf '\n'
        done;
        if torn && k < n then begin
          (* the interrupted (k+1)-th append: half its line, no newline *)
          let next = Journal.op_to_line arr.(k) in
          Buffer.add_string buf (String.sub next 0 (String.length next / 2))
        end;
        write_file (journal_file cdir) (Buffer.contents buf);
        let name =
          Printf.sprintf "kill-at-op-%d%s" k (if torn then "-torn" else "")
        in
        let v = restore_case ~case:name config cdir in
        let expected_tier = if torn && k < n then 1 else 0 in
        let v =
          if v.tier <> expected_tier && v.contained then
            {
              v with
              contained = false;
              detail =
                Printf.sprintf "expected tier %d, classified tier %d"
                  expected_tier v.tier;
            }
          else v
        in
        rm_rf cdir;
        v)
  in
  verdicts
