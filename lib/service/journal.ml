module Wire = Rrs_core.Wire
module Json = Rrs_obs.Json

type op =
  | Submit of { round : int; color : int; count : int }
  | Step of int
  | Reconfigure of {
      delta : int option;
      n : int option;
      delay : (int * int) list;
    }

type header = {
  policy : string;
  n : int;
  delta : int;
  delay : int array;
  mini_rounds : int;
}

let header_version = 3

let int_array arr =
  Json.List (Array.to_list arr |> List.map (fun v -> Json.Int v))

let header_to_line h =
  Json.to_string
    (Json.Assoc
       [
         ("type", Json.String "serve_open");
         ("version", Json.Int header_version);
         ("policy", Json.String h.policy);
         ("n", Json.Int h.n);
         ("delta", Json.Int h.delta);
         ("delay", int_array h.delay);
         ("mini_rounds", Json.Int h.mini_rounds);
       ])

let to_command = function
  | Submit { round; color; count } ->
      Protocol.Submit { round = Some round; color; count }
  | Step k -> Protocol.Step k
  | Reconfigure { delta; n; delay } -> Protocol.Reconfigure { delta; n; delay }

let op_to_line op = Protocol.command_to_string (to_command op)

(* The version-2 decoder: the protocol parser, restricted to the three
   canonical state-changing forms (a submit carries its round). *)
let op_of_line line =
  match Protocol.parse line with
  | Ok (Some (Protocol.Submit { round = Some round; color; count })) ->
      Ok (Submit { round; color; count })
  | Ok (Some (Protocol.Step k)) -> Ok (Step k)
  | Ok (Some (Protocol.Reconfigure { delta; n; delay })) ->
      Ok (Reconfigure { delta; n; delay })
  | Ok (Some _ | None) ->
      Error
        (Printf.sprintf
           "journal op: want submit ROUND COLOR COUNT, step or reconfigure, \
            got %S"
           line)
  | Error e -> Error ("journal op: " ^ e)

let ( let* ) = Result.bind

let field name json =
  match Json.member name json with
  | Some v -> Ok v
  | None -> Error (Printf.sprintf "missing field %S" name)

let int_field name json =
  let* v = field name json in
  Result.map_error (fun e -> Printf.sprintf "field %S: %s" name e) (Json.to_int v)

let string_field name json =
  let* v = field name json in
  Result.map_error
    (fun e -> Printf.sprintf "field %S: %s" name e)
    (Json.to_string_lit v)

let int_array_field name json =
  let* v = field name json in
  let* items =
    Result.map_error (fun e -> Printf.sprintf "field %S: %s" name e)
      (Json.to_list v)
  in
  let* ints =
    List.fold_left
      (fun acc item ->
        let* acc = acc in
        let* v =
          Result.map_error
            (fun e -> Printf.sprintf "field %S: %s" name e)
            (Json.to_int item)
        in
        Ok (v :: acc))
      (Ok []) items
  in
  Ok (Array.of_list (List.rev ints))

let header_of_line line =
  let* json = Json.parse line in
  let* ty = string_field "type" json in
  if ty <> "serve_open" then
    Error (Printf.sprintf "journal header: type %S (want serve_open)" ty)
  else
    let* version = int_field "version" json in
    if version <> header_version then
      Error
        (Printf.sprintf
           "journal header: version %d is not supported (this server \
            reads version %d only)"
           version header_version)
    else
      let* policy = string_field "policy" json in
      let* n = int_field "n" json in
      let* delta = int_field "delta" json in
      let* delay = int_array_field "delay" json in
      let* mini_rounds = int_field "mini_rounds" json in
      Ok { policy; n; delta; delay; mini_rounds }

(* ---- segments ---------------------------------------------------- *)

let segment_name ops =
  if ops = 0 then "journal.jsonl" else "journal." ^ string_of_int ops

let segment_of_name name =
  if name = "journal.jsonl" then Some 0
  else
    match String.split_on_char '.' name with
    | [ "journal"; digits ] -> (
        match int_of_string_opt digits with
        | Some ops when ops > 0 && string_of_int ops = digits -> Some ops
        | _ -> None)
    | _ -> None

type anchor = { ops : int; chain : string }

(* The first line of a segment after segment 0: a comment to the
   protocol parser, so the segment is still an [rrs serve] script. *)
let segment_header_prefix = "# journal 3 ops="

let add_segment_header w (a : anchor) =
  Wire.add_string w segment_header_prefix;
  Wire.add_decimal w a.ops;
  Wire.add_string w " chain=";
  Wire.add_string w a.chain

let segment_header_of_line line =
  match String.split_on_char ' ' line with
  | [ "#"; "journal"; "3"; ops; chain ]
    when String.starts_with ~prefix:"ops=" ops
         && String.starts_with ~prefix:"chain=" chain -> (
      match int_of_string_opt (String.sub ops 4 (String.length ops - 4)) with
      | Some ops -> Some { ops; chain = String.sub chain 6 (String.length chain - 6) }
      | None -> None)
  | _ -> None

(* ---- line checks -------------------------------------------------- *)

(* Every op line ends in [" #"] and [check_digits] hex digits of the
   chain value after its op text. *)
let check_digits = 6
let check_length = check_digits + 2

(* The op text's length, when the line ends in a check's shape. *)
let op_length line =
  let n = String.length line - check_length in
  if n > 0 && line.[n] = ' ' && line.[n + 1] = '#' then Some n else None

type tear = { segment : string; line : int; offset : int; reason : string }

let describe_tear ~dir t =
  let path = Filename.concat dir t.segment in
  if t.offset = 0 then
    Printf.sprintf
      "dropped the cut-short start of segment %s (a checkpoint's rotation \
       was interrupted; the file is removed): %s"
      path t.reason
  else
    Printf.sprintf
      "dropped torn trailing line %d of %s at byte offset %d (truncate the \
       segment to %d bytes to remove the tear): %s"
      t.line path t.offset t.offset t.reason

type load_error =
  | Missing
  | Empty
  | Bad_header of { offset : int; reason : string }
  | Corrupt_body of { segment : string; line : int; offset : int; reason : string }

let describe_load_error ~dir = function
  | Missing -> Printf.sprintf "journal %s: no such file" (Filename.concat dir (segment_name 0))
  | Empty -> Printf.sprintf "journal %s: empty" (Filename.concat dir (segment_name 0))
  | Bad_header { offset; reason } ->
      Printf.sprintf "journal %s: header (byte offset %d): %s"
        (Filename.concat dir (segment_name 0))
        offset reason
  | Corrupt_body { segment; line; offset; reason } ->
      Printf.sprintf
        "journal %s: line %d (byte offset %d): %s — corruption before the \
         tail, refusing to load"
        (Filename.concat dir segment) line offset reason

let is_blank line =
  String.for_all
    (function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false)
    line

(* ---- reading ------------------------------------------------------ *)

(* Where a read stands: in segment [segment], [offset] bytes into its
   file, after [ops] ops, with the chain value of the last line read.
   [read] counts the journal bytes read to get there. *)
type position = {
  segment : int;
  offset : int;
  ops : int;
  hash : Wire.Hash.t;
  read : int;
}

let bytes_read p = p.read

(* The first line of a file and the offset after it, which exceeds the
   line's length when a newline ended it. *)
let read_first path =
  In_channel.with_open_bin path (fun ic ->
      match In_channel.input_line ic with
      | None -> None
      | Some line -> Some (line, pos_in ic))

(* The chain starts at the hash of segment 0's header line. *)
let header_chain text =
  let hash = Wire.Hash.create () in
  Wire.Hash.feed hash text ~pos:0 ~len:(String.length text);
  Wire.Hash.link hash;
  hash

let top dir =
  let path = Filename.concat dir (segment_name 0) in
  if not (Sys.file_exists path) then Error Missing
  else
    match read_first path with
    | None -> Error Empty
    | Some (text, offset) -> (
        match header_of_line text with
        | Error reason -> Error (Bad_header { offset = 0; reason })
        | Ok header ->
            Ok
              ( header,
                { segment = 0; offset; ops = 0; hash = header_chain text; read = offset } ))

(* Segment 0's header is hashed, not parsed: a checkpoint at op 0 names
   its chain value. *)
let at dir (a : anchor) =
  match read_first (Filename.concat dir (segment_name a.ops)) with
  | Some (line, offset) when offset > String.length line ->
      let hash =
        if a.ops = 0 then Some (header_chain line)
        else
          match segment_header_of_line line with
          | Some h when h.ops = a.ops -> Wire.Hash.of_chain h.chain
          | _ -> None
      in
      Option.bind hash (fun hash ->
          if Wire.Hash.chain hash = a.chain then
            Some { segment = a.ops; offset; ops = a.ops; hash; read = offset }
          else None)
  | _ | (exception Sys_error _) -> None

(* Read segments from [p]: each op line's check must continue the
   chain, and each op goes to [f].  Blank lines are skipped.  At the end
   of a segment's file the journal continues in the segment that starts
   at the op count reached, when one exists: its header must name that
   op count and chain value. *)
let fold dir (p : position) ~init ~f =
  let hash = Wire.Hash.copy p.hash in
  let corrupt segment line offset reason =
    Error (Corrupt_body { segment; line; offset; reason })
  in
  let rec segment seg ~start ~ops ~read acc =
    let name = segment_name seg in
    let ic = open_in_bin (Filename.concat dir name) in
    let stop =
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      (* line numbers count from the top of the file *)
      let number = ref 0 in
      while pos_in ic < start && In_channel.input_line ic <> None do
        incr number
      done;
      let rec go ops acc =
        let offset = pos_in ic in
        match In_channel.input_line ic with
        | None -> `End (ops, offset, acc)
        | Some text when not (pos_in ic > offset + String.length text) ->
            (* only the file's last line can lack its newline *)
            `Torn
              ( { segment = name; line = !number + 1; offset;
                  reason = "no trailing newline: the append was cut short" },
                ops, offset, acc )
        | Some text when is_blank text ->
            incr number;
            go ops acc
        | Some text -> (
            incr number;
            let decoded =
              match op_length text with
              | None -> Error "no line check"
              | Some len ->
                  Wire.Hash.feed hash text ~pos:0 ~len;
                  Wire.Hash.link hash;
                  if
                    Wire.Hash.check_matches hash text ~pos:(len + 2)
                      ~digits:check_digits
                  then op_of_line (String.sub text 0 len)
                  else
                    Error
                      "line check mismatch: this line or one before it was \
                       changed, moved or removed"
            in
            match decoded with
            | Ok op -> go (ops + 1) (f acc op)
            | Error reason -> `Corrupt (!number, offset, reason))
      in
      go ops acc
    in
    let here ops offset = { segment = seg; offset; ops; hash; read = read + offset - start } in
    match stop with
    | `Corrupt (line, offset, reason) -> corrupt name line offset reason
    | `Torn (t, ops, offset, acc) ->
        (* a crash cuts only the last append of the last segment *)
        if ops <> seg && Sys.file_exists (Filename.concat dir (segment_name ops))
        then corrupt name t.line t.offset (t.reason ^ ", yet a later segment follows")
        else Ok (acc, Some t, here ops offset)
    | `End (ops, offset, acc) -> (
        let next = segment_name ops in
        let path = Filename.concat dir next in
        if ops = seg || not (Sys.file_exists path) then Ok (acc, None, here ops offset)
        else
          match read_first path with
          | Some (line, after) when after > String.length line -> (
              match segment_header_of_line line with
              | Some h when h.ops = ops && h.chain = Wire.Hash.chain hash ->
                  let read = read + offset - start + after in
                  segment ops ~start:after ~ops ~read acc
              | _ ->
                  corrupt next 1 0
                    (Printf.sprintf
                       "segment header %S does not continue the journal (ops=%d \
                        chain=%s)"
                       line ops (Wire.Hash.chain hash)))
          | _ ->
              (* empty, or its header cut short: the checkpoint rotation
                 that made it was interrupted before any op went there *)
              Ok
                ( acc,
                  Some
                    { segment = next; line = 1; offset = 0;
                      reason = "the segment header was cut short" },
                  here ops offset ))
  in
  segment p.segment ~start:p.offset ~ops:p.ops ~read:p.read init

(* ---- writing ------------------------------------------------------ *)

(* The writer formats each op once, into [line], a buffer it reuses:
   the one write(2) of the append and the chain both take those bytes.
   [next] is where an append computes the new chain value, so a failed
   write leaves [hash] as it was.  No stdio channel sits in between. *)
type writer = {
  dir : string;
  mutable fd : Unix.file_descr;
  line : Wire.writer;
  mutable hash : Wire.Hash.t;
  mutable next : Wire.Hash.t;
  mutable ops : int;
  mutable segment : int;  (** the op count the open segment starts at *)
  mutable segments : int list;  (** segment files on disk, oldest first *)
}

let open_segment dir ops flags perm =
  Unix.openfile
    (Filename.concat dir (segment_name ops))
    (Unix.O_WRONLY :: Unix.O_CREAT :: Unix.O_CLOEXEC :: flags)
    perm

(* [line] holds one line without its newline. *)
let write_line fd line =
  Wire.add_char line '\n';
  Wire.write_fd fd line

let create dir header =
  let text = header_to_line header in
  let fd = open_segment dir 0 [ Unix.O_TRUNC ] 0o666 in
  let line = Wire.writer ~capacity:128 () in
  Wire.add_string line text;
  (try write_line fd line
   with e ->
     Unix.close fd;
     raise e);
  {
    dir;
    fd;
    line;
    hash = header_chain text;
    next = Wire.Hash.create ();
    ops = 0;
    segment = 0;
    segments = [ 0 ];
  }

let append_to dir (p : position) ~segments =
  {
    dir;
    fd = open_segment dir p.segment [ Unix.O_APPEND ] 0o644;
    line = Wire.writer ~capacity:128 ();
    hash = Wire.Hash.copy p.hash;
    next = Wire.Hash.create ();
    ops = p.ops;
    segment = p.segment;
    segments = List.sort_uniq Int.compare (p.segment :: segments);
  }

let anchor w = { ops = w.ops; chain = Wire.Hash.chain w.hash }

(* The op text, then its check from the chain value after it: a failed
   write raises before [hash] or the op count move, so the anchor still
   names only what was written whole. *)
let append w op =
  Rrs_fault.probe "serve.journal";
  Wire.clear w.line;
  Protocol.add_command w.line (to_command op);
  Wire.Hash.assign w.next w.hash;
  Wire.Hash.feed_writer w.next w.line ~pos:0 ~len:(Wire.length w.line);
  Wire.Hash.link w.next;
  Wire.add_string w.line " #";
  Wire.Hash.add_check w.line w.next ~digits:check_digits;
  write_line w.fd w.line;
  let hash = w.hash in
  w.hash <- w.next;
  w.next <- hash;
  w.ops <- w.ops + 1

let temp_prefix = "journal.tmp."

(* A new segment file holding its header line, from the oldest segment
   before [reuse_below] when there is one: that file is renamed to a
   temp name, overwritten in place and cut to the header's length, then
   renamed to the new segment's free name, so a crash leaves it under
   the temp name, which no restore reads, or as the new segment holding
   its header alone.  Creating a file measured costlier than the rest of
   a checkpoint commit (doc/PERFORMANCE.md, "Restore reads one
   segment").  Without one to reuse, the file is created. *)
let new_segment w ~reuse_below =
  let path = Filename.concat w.dir (segment_name w.ops) in
  match w.segments with
  | oldest :: rest when oldest < reuse_below -> (
      let temp = Filename.concat w.dir (temp_prefix ^ string_of_int (Unix.getpid ())) in
      Unix.rename (Filename.concat w.dir (segment_name oldest)) temp;
      w.segments <- rest;
      let fd = Unix.openfile temp [ Unix.O_WRONLY; Unix.O_CLOEXEC ] 0 in
      match
        write_line fd w.line;
        Unix.ftruncate fd (Wire.length w.line);
        Unix.rename temp path
      with
      | () -> fd
      | exception e ->
          Unix.close fd;
          raise e)
  | _ -> (
      let fd = open_segment w.dir w.ops [ Unix.O_TRUNC; Unix.O_APPEND ] 0o666 in
      match write_line fd w.line with
      | () -> fd
      | exception e ->
          Unix.close fd;
          raise e)

let rotate w ~reuse_below =
  if w.ops <> w.segment then begin
    Wire.clear w.line;
    add_segment_header w.line (anchor w);
    let fd = new_segment w ~reuse_below in
    (try Unix.close w.fd with Unix.Unix_error _ -> ());
    w.fd <- fd;
    w.segment <- w.ops;
    w.segments <- w.segments @ [ w.ops ]
  end

let rec retire w ~below =
  match w.segments with
  | s :: rest when s < below ->
      (try Unix.unlink (Filename.concat w.dir (segment_name s))
       with Unix.Unix_error _ -> ());
      w.segments <- rest;
      retire w ~below
  | _ -> ()

let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()
