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

let header_version = 2

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

type tear = { line : int; offset : int; reason : string }

let describe_tear ~path t =
  Printf.sprintf
    "dropped torn trailing line %d of %s at byte offset %d (truncate the \
     journal to %d bytes to remove the tear): %s"
    t.line path t.offset t.offset t.reason

type load_error =
  | Missing
  | Empty
  | Bad_header of { offset : int; reason : string }
  | Corrupt_body of { line : int; offset : int; reason : string }

let describe_load_error ~path = function
  | Missing -> Printf.sprintf "journal %s: no such file" path
  | Empty -> Printf.sprintf "journal %s: empty" path
  | Bad_header { offset; reason } ->
      Printf.sprintf "journal %s: header (byte offset %d): %s" path offset
        reason
  | Corrupt_body { line; offset; reason } ->
      Printf.sprintf
        "journal %s: line %d (byte offset %d): %s — corruption before the \
         tail, refusing to load"
        path line offset reason

let is_blank line =
  String.for_all
    (function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false)
    line

(* ---- positions ---------------------------------------------------- *)

type anchor = { offset : int; lines : int; digest : string }

(* The hash has seen exactly the bytes before the position, so its
   length is the offset. *)
type position = { lines : int; hash : Wire.Hash.t }

let hash_line hash text =
  Wire.Hash.feed hash text ~pos:0 ~len:(String.length text);
  Wire.Hash.feed hash "\n" ~pos:0 ~len:1

let resume path (a : anchor) =
  let chunk = 65536 in
  let read ic =
    if In_channel.length ic < Int64.of_int a.offset then None
    else
      (* the writer starts every journal with its header line *)
      match In_channel.input_line ic with
      | None -> None
      | Some first when String.length first >= a.offset -> None
      | Some first -> (
          match header_of_line first with
          | Error _ -> None
          | Ok header ->
              let hash = Wire.Hash.create () in
              hash_line hash first;
              let buf = Bytes.create chunk in
              let rec go left =
                if left = 0 then true
                else
                  let n = In_channel.input ic buf 0 (min chunk left) in
                  n > 0
                  && begin
                       Wire.Hash.feed_bytes hash buf ~pos:0 ~len:n;
                       go (left - n)
                     end
              in
              if go (a.offset - Wire.Hash.length hash)
                 && Wire.Hash.digest hash = a.digest
              then Some (header, { lines = a.lines; hash })
              else None)
  in
  if a.offset < 0 || a.lines < 1 then None
  else try In_channel.with_open_bin path read with Sys_error _ -> None

let fold ?from path ~init ~f =
  if not (Sys.file_exists path) then Error Missing
  else
    In_channel.with_open_bin path @@ fun ic ->
    let number = ref 0 in
    let hash =
      match from with
      | Some (_, (p : position)) -> Wire.Hash.copy p.hash
      | None -> Wire.Hash.create ()
    in
    (* blank lines read since the last line the hash took: they are
       hashed with the next line taken, or at the end of the file *)
    let blanks = Buffer.create 16 in
    let take_blanks len =
      Wire.Hash.feed hash (Buffer.contents blanks) ~pos:0 ~len;
      Buffer.clear blanks
    in
    let take text =
      take_blanks (Buffer.length blanks);
      hash_line hash text
    in
    let position () = { lines = !number; hash } in
    (* The next non-blank line: its text, 1-based number, the byte
       offset where it starts, and whether a newline ended it.  Blank
       lines are skipped but still advance numbers and offsets. *)
    let rec next () =
      let offset = pos_in ic in
      match In_channel.input_line ic with
      | None -> None
      | Some text ->
          incr number;
          let ended = pos_in ic > offset + String.length text in
          if is_blank text then begin
            Buffer.add_string blanks text;
            if ended then Buffer.add_char blanks '\n';
            next ()
          end
          else Some (text, !number, offset, ended)
    in
    let rec go acc =
      match next () with
      | None ->
          take_blanks (Buffer.length blanks);
          Ok (acc, None, position ())
      | Some (text, line, offset, ended) -> (
          match op_of_line text with
          | Ok op when ended ->
              take text;
              go (f acc op)
          | decoded -> (
              let reason =
                match decoded with
                | Error reason -> reason
                | Ok _ -> "no trailing newline: the append was cut short"
              in
              let before = Buffer.length blanks in
              match next () with
              | None ->
                  (* torn tail: the crash interrupted the final append;
                     the op was never acked, drop it.  The position is
                     where the torn line starts. *)
                  take_blanks before;
                  number := line - 1;
                  Ok (acc, Some { line; offset; reason }, position ())
              | Some _ -> Error (Corrupt_body { line; offset; reason })))
    in
    match from with
    | Some (header, (p : position)) ->
        seek_in ic (Wire.Hash.length p.hash);
        number := p.lines;
        go (init header)
    | None -> (
        match next () with
        | None -> Error Empty
        | Some (text, _, offset, _) -> (
            match header_of_line text with
            | Error reason -> Error (Bad_header { offset; reason })
            | Ok header ->
                take text;
                go (init header)))

(* The writer formats each op once, into [line], a buffer it reuses:
   the one write(2) of the append and the running hash both take those
   bytes.  No stdio channel sits in between. *)
type writer = {
  fd : Unix.file_descr;
  line : Wire.writer;
  hash : Wire.Hash.t;
  mutable lines : int;
}

(* [line] holds one line without its newline.  A failed write raises
   before the hash or the line count move, so the anchor still names
   only what was written whole. *)
let write_line w =
  Wire.add_char w.line '\n';
  Wire.write_fd w.fd w.line;
  Wire.Hash.feed_writer w.hash w.line ~pos:0 ~len:(Wire.length w.line);
  w.lines <- w.lines + 1

let open_writer path flags perm hash lines =
  let fd =
    Unix.openfile path (Unix.O_WRONLY :: Unix.O_CREAT :: Unix.O_CLOEXEC :: flags)
      perm
  in
  { fd; line = Wire.writer ~capacity:128 (); hash; lines }

let create path header =
  let w = open_writer path [ Unix.O_TRUNC ] 0o666 (Wire.Hash.create ()) 0 in
  match
    Wire.add_string w.line (header_to_line header);
    write_line w
  with
  | () -> w
  | exception e ->
      Unix.close w.fd;
      raise e

let append_to path (p : position) =
  open_writer path [ Unix.O_APPEND ] 0o644 (Wire.Hash.copy p.hash) p.lines

let anchor w =
  {
    offset = Wire.Hash.length w.hash;
    lines = w.lines;
    digest = Wire.Hash.digest w.hash;
  }

let append w op =
  Rrs_fault.probe "serve.journal";
  Wire.clear w.line;
  Protocol.add_command w.line (to_command op);
  write_line w

let close w = try Unix.close w.fd with Unix.Unix_error _ -> ()
