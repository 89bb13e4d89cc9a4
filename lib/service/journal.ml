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
  version : int;
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
         ("version", Json.Int h.version);
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

let opt_int_field name json =
  match Json.member name json with
  | None -> Ok None
  | Some v ->
      Result.map_error
        (fun e -> Printf.sprintf "field %S: %s" name e)
        (Result.map (fun v -> Some v) (Json.to_int v))

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
    if version < 1 || version > header_version then
      Error
        (Printf.sprintf "journal header: version %d (want 1 to %d)" version
           header_version)
    else
      let* policy = string_field "policy" json in
      let* n = int_field "n" json in
      let* delta = int_field "delta" json in
      let* delay = int_array_field "delay" json in
      let* mini_rounds = int_field "mini_rounds" json in
      Ok { version; policy; n; delta; delay; mini_rounds }

(* The version-1 op decoder: one JSON object per op. *)
let op_of_json line =
  let* json = Json.parse line in
  let* ty = string_field "type" json in
  if ty <> "serve_op" then
    Error (Printf.sprintf "journal op: type %S (want serve_op)" ty)
  else
    let* op = string_field "op" json in
    match op with
    | "submit" ->
        let* round = int_field "round" json in
        let* color = int_field "color" json in
        let* count = int_field "count" json in
        Ok (Submit { round; color; count })
    | "step" ->
        let* rounds = int_field "rounds" json in
        Ok (Step rounds)
    | "reconfigure" ->
        let* delta = opt_int_field "delta" json in
        let* n = opt_int_field "n" json in
        let* delay =
          match Json.member "delay" json with
          | None -> Ok []
          | Some v ->
              let* items = Json.to_list v in
              List.fold_left
                (fun acc item ->
                  let* acc = acc in
                  match item with
                  | Json.List [ Json.Int c; Json.Int b ] -> Ok ((c, b) :: acc)
                  | _ -> Error "field \"delay\": want [COLOR, BOUND] pairs")
                (Ok []) items
              |> Result.map List.rev
        in
        Ok (Reconfigure { delta; n; delay })
    | op -> Error (Printf.sprintf "journal op: unknown op %S" op)

(* A version-1 journal that a newer server restored goes on with
   version-2 lines, so its body may hold both; no protocol line starts
   with a brace. *)
let op_of_v1_line line =
  if line.[0] = '{' then op_of_json line else op_of_line line

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
    let rec go decode acc =
      match next () with
      | None ->
          take_blanks (Buffer.length blanks);
          Ok (acc, None, position ())
      | Some (text, line, offset, ended) -> (
          match decode text with
          | Ok op when ended ->
              take text;
              go decode (f acc op)
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
    let decoder (header : header) =
      if header.version = 1 then op_of_v1_line else op_of_line
    in
    match from with
    | Some (header, (p : position)) ->
        seek_in ic (Wire.Hash.length p.hash);
        number := p.lines;
        go (decoder header) (init header)
    | None -> (
        match next () with
        | None -> Error Empty
        | Some (text, _, offset, _) -> (
            match header_of_line text with
            | Error reason -> Error (Bad_header { offset; reason })
            | Ok header ->
                take text;
                go (decoder header) (init header)))

type writer = { oc : out_channel; hash : Wire.Hash.t; mutable lines : int }

let create path header =
  let oc = Out_channel.open_text path in
  let line = header_to_line header in
  output_string oc line;
  output_char oc '\n';
  flush oc;
  let hash = Wire.Hash.create () in
  hash_line hash line;
  { oc; hash; lines = 1 }

let append_to path (p : position) =
  let oc =
    Out_channel.open_gen [ Open_append; Open_creat; Open_text ] 0o644 path
  in
  { oc; hash = Wire.Hash.copy p.hash; lines = p.lines }

let anchor w =
  {
    offset = Wire.Hash.length w.hash;
    lines = w.lines;
    digest = Wire.Hash.digest w.hash;
  }

let append w op =
  Rrs_fault.probe "serve.journal";
  let line = op_to_line op in
  output_string w.oc line;
  output_char w.oc '\n';
  flush w.oc;
  hash_line w.hash line;
  w.lines <- w.lines + 1

let close w = Out_channel.close_noerr w.oc
