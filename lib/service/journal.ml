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

(* The op decoder, for a line {!decode} has stripped of its check: the
   protocol parser, restricted to the three canonical state-changing
   forms (a submit carries its round). *)
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

(* The field [name] of [json], decoded by [decode]. *)
let field decode name json =
  match Json.member name json with
  | Some v -> Result.map_error (Printf.sprintf "field %S: %s" name) (decode v)
  | None -> Error (Printf.sprintf "missing field %S" name)

let ints v =
  let* items = Json.to_list v in
  let add acc item = Result.bind acc (fun acc -> Result.map (fun i -> i :: acc) (Json.to_int item)) in
  Result.map (fun ints -> Array.of_list (List.rev ints)) (List.fold_left add (Ok []) items)

let header_of_line line =
  let* json = Json.parse line in
  let* ty = field Json.to_string_lit "type" json in
  if ty <> "serve_open" then
    Error (Printf.sprintf "journal header: type %S (want serve_open)" ty)
  else
    let* version = field Json.to_int "version" json in
    if version <> header_version then
      Error
        (Printf.sprintf
           "journal header: version %d is not supported (this server \
            reads version %d only)"
           version header_version)
    else
      let* policy = field Json.to_string_lit "policy" json in
      let* n = field Json.to_int "n" json in
      let* delta = field Json.to_int "delta" json in
      let* delay = field ints "delay" json in
      let* mini_rounds = field Json.to_int "mini_rounds" json in
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

let rec is_blank buf ~pos ~stop =
  pos >= stop
  || (match Bytes.get buf pos with ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false)
     && is_blank buf ~pos:(pos + 1) ~stop

(* ---- reading ------------------------------------------------------ *)

(* One buffer for every file a restore reads: read(2) fills it and
   lines are cut from it in place.  [buf.[pos .. len-1]] holds the bytes
   not consumed yet, and [files] counts the files opened. *)
type reader = {
  mutable buf : Bytes.t;
  mutable fd : Unix.file_descr option;
  mutable pos : int;
  mutable len : int;
  mutable files : int;
}

let reader ?(capacity = 65536) () =
  { buf = Bytes.create (max 1 capacity); fd = None; pos = 0; len = 0; files = 0 }

let files_read r = r.files
let buffer r = r.buf

let release r =
  Option.iter (fun fd -> try Unix.close fd with Unix.Unix_error _ -> ()) r.fd;
  r.fd <- None

let open_file r path =
  release r;
  r.fd <- Some (Unix.openfile path [ Unix.O_RDONLY; Unix.O_CLOEXEC ] 0);
  r.files <- r.files + 1;
  r.pos <- 0;
  r.len <- 0

(* More of the file after [buf.[len-1]], once the consumed bytes are
   moved out and a full buffer is doubled; false at the end of the
   file.  The buffer grows only to hold a line longer than it. *)
let refill r =
  if r.pos > 0 then begin
    Bytes.blit r.buf r.pos r.buf 0 (r.len - r.pos);
    r.len <- r.len - r.pos;
    r.pos <- 0
  end;
  if r.len = Bytes.length r.buf then r.buf <- Bytes.extend r.buf 0 r.len;
  match r.fd with
  | None -> false
  | Some fd ->
      let n = Unix.read fd r.buf r.len (Bytes.length r.buf - r.len) in
      r.len <- r.len + n;
      n > 0

(* The index in [buf] of the newline that ends the line at [pos], from
   [i] on, read on until the line is whole in the buffer; -1 when the
   file ends first, with the rest of it in [buf.[pos .. len-1]]. *)
let rec next_line r i =
  if i < r.len then if Bytes.get r.buf i = '\n' then i else next_line r (i + 1)
  else
    let scanned = i - r.pos in
    if refill r then next_line r (r.pos + scanned) else -1

let slurp r path =
  open_file r path;
  Fun.protect ~finally:(fun () -> release r) (fun () ->
      while refill r do () done;
      r.len)

let copy_file r src dst =
  let out = Unix.openfile dst [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC; Unix.O_CLOEXEC ] 0o666 in
  Fun.protect ~finally:(fun () -> release r; Unix.close out) (fun () ->
      open_file r src;
      while refill r do
        ignore (Unix.write out r.buf 0 r.len);
        r.pos <- r.len
      done)

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
let where p = (p.segment, p.offset, { ops = p.ops; chain = Wire.Hash.chain p.hash })

(* The chain starts at the hash of segment 0's header line. *)
let header_chain buf ~len =
  let hash = Wire.Hash.create () in
  Wire.Hash.feed_bytes hash buf ~pos:0 ~len;
  Wire.Hash.link hash;
  hash

(* Open the segment that starts at [ops] and read its first line, which
   starts at [buf.[0]]: the line's end and the offset after it, which
   exceeds the end when a newline ended it; [None] for an empty file. *)
let first_line r dir ops =
  open_file r (Filename.concat dir (segment_name ops));
  match next_line r 0 with
  | eol when eol >= 0 -> Some (eol, eol + 1)
  | _ -> if r.len > 0 then Some (r.len, r.len) else None

let start r ~segment ~offset ~ops hash =
  r.pos <- offset;
  { segment; offset; ops; hash; read = offset }

let top r dir =
  match first_line r dir 0 with
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> Error Missing
  | None -> Error Empty
  | Some (stop, offset) -> (
      match header_of_line (Bytes.sub_string r.buf 0 stop) with
      | Error reason -> Error (Bad_header { offset = 0; reason })
      | Ok header -> Ok (header, start r ~segment:0 ~offset ~ops:0 (header_chain r.buf ~len:stop)))

(* Segment 0's header is hashed, not parsed: a checkpoint at op 0 names
   its chain value. *)
let at r dir (a : anchor) =
  match first_line r dir a.ops with
  | Some (eol, offset) when offset > eol -> (
      let hash =
        if a.ops = 0 then Some (header_chain r.buf ~len:eol)
        else
          match segment_header_of_line (Bytes.sub_string r.buf 0 eol) with
          | Some h when h.ops = a.ops -> Wire.Hash.of_chain h.chain
          | _ -> None
      in
      match hash with
      | Some hash when Wire.Hash.chain hash = a.chain -> Some (start r ~segment:a.ops ~offset ~ops:a.ops hash)
      | _ -> None)
  | _ | (exception Unix.Unix_error _) -> None

(* The op in [buf.[pos .. stop-1]], when its check continues the chain
   in [hash]. *)
let decode hash buf ~pos ~stop =
  let len = stop - pos - check_length in
  if len <= 0 || Bytes.get buf (pos + len) <> ' ' || Bytes.get buf (pos + len + 1) <> '#' then
    Error "no line check"
  else begin
    Wire.Hash.feed_bytes hash buf ~pos ~len;
    Wire.Hash.link hash;
    if Wire.Hash.check_matches hash (Bytes.unsafe_to_string buf) ~pos:(stop - check_digits) ~digits:check_digits
    then op_of_line (Bytes.sub_string buf pos len)
    else
      Error
        "line check mismatch: this line or one before it was changed, moved \
         or removed"
  end

(* Read segments on from [p], the position the last {!top} or {!at} on
   [r] left open: each op line's check must continue the chain, and each
   op goes to [f].  Blank lines are skipped.  At the end of a segment's
   file the journal continues in the segment that starts at the op
   count reached, when [segments] lists one: its header must name that
   op count and chain value. *)
let fold r dir (p : position) ~segments ~init ~f =
  let hash = Wire.Hash.copy p.hash in
  let corrupt segment line offset reason =
    Error (Corrupt_body { segment; line; offset; reason })
  in
  let follows seg ops = ops <> seg && List.mem ops segments in
  let rec segment seg ~start ~read =
    let name = segment_name seg in
    let here ops offset = { segment = seg; offset; ops; hash; read = read + offset - start } in
    (* [lines]: the lines read, counting from the top of the file, and
       [offset] the file offset after them *)
    let rec go lines offset ops acc =
      let eol = next_line r r.pos in
      if eol >= 0 then begin
        let line = r.pos in
        r.pos <- eol + 1;
        let after = offset + eol + 1 - line in
        if is_blank r.buf ~pos:line ~stop:eol then go (lines + 1) after ops acc
        else
          match decode hash r.buf ~pos:line ~stop:eol with
          | Ok op -> go (lines + 1) after (ops + 1) (f acc op)
          | Error reason -> corrupt name (lines + 1) offset reason
      end
      else if r.pos < r.len then
        (* only the file's last line can lack its newline, and a crash
           cuts only the last append of the last segment *)
        let reason = "no trailing newline: the append was cut short" in
        if follows seg ops then corrupt name (lines + 1) offset (reason ^ ", yet a later segment follows")
        else Ok (acc, Some { segment = name; line = lines + 1; offset; reason }, here ops offset)
      else if not (follows seg ops) then Ok (acc, None, here ops offset)
      else
        let next = segment_name ops in
        match first_line r dir ops with
        | Some (eol, after) when after > eol -> (
            let line = Bytes.sub_string r.buf 0 eol in
            match segment_header_of_line line with
            | Some h when h.ops = ops && h.chain = Wire.Hash.chain hash ->
                r.pos <- after;
                segment ops ~start:after ~read:(read + offset - start + after) 1 after ops acc
            | _ ->
                corrupt next 1 0
                  (Printf.sprintf
                     "segment header %S does not continue the journal (ops=%d \
                      chain=%s)"
                     line ops (Wire.Hash.chain hash)))
        | _ ->
            (* empty, or its header cut short: the checkpoint rotation
               that made it was interrupted before any op went there *)
            let tear = { segment = next; line = 1; offset = 0; reason = "the segment header was cut short" } in
            Ok (acc, Some tear, here ops offset)
    in
    go
  in
  Fun.protect ~finally:(fun () -> release r) (fun () ->
      segment p.segment ~start:p.offset ~read:p.read 1 p.offset p.ops init)

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
    hash = header_chain (Bytes.unsafe_of_string text) ~len:(String.length text);
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

(* The header is written under the temp name, in the file of the
   oldest segment before [reuse_below] when there is one
   ({!Rrs_obs.File_commit.overwrite}), then renamed to the segment's
   free name, so a crash leaves it under the temp name, which no
   restore reads, or as the new segment holding its header alone.
   Creating a file measured costlier than the rest of a checkpoint
   commit (doc/PERFORMANCE.md, "Restore reads one segment"). *)
let rotate w ~reuse_below =
  if w.ops <> w.segment then begin
    Wire.clear w.line;
    add_segment_header w.line (anchor w);
    let reuse, kept =
      match w.segments with
      | oldest :: rest when oldest < reuse_below ->
          (Some (Filename.concat w.dir (segment_name oldest)), rest)
      | segments -> (None, segments)
    in
    let temp =
      Filename.concat w.dir (temp_prefix ^ string_of_int (Unix.getpid ()))
    in
    let fd =
      Rrs_obs.File_commit.overwrite ?reuse ~temp (fun fd ->
          write_line fd w.line;
          Wire.length w.line)
    in
    w.segments <- kept;
    (try Unix.rename temp (Filename.concat w.dir (segment_name w.ops))
     with e ->
       Unix.close fd;
       raise e);
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
