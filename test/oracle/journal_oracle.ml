(* The channel-based journal reader that lib/service's Journal replaced
   with one read(2) buffer: [top], [at] and [fold] as they were, each
   reading through its own In_channel, probing the file system for the
   next segment, and re-reading a segment's header before its ops.
   test_service requires the production reader to return the same ops,
   tear, end position, bytes read and load error on generated
   multi-segment journals. *)

module Journal = Rrs_service.Journal
module Wire = Rrs_core.Wire

type position = {
  segment : int;
  offset : int;
  ops : int;
  hash : Wire.Hash.t;
  read : int;
}

(* The segment's start, the offset in its file and the anchor there,
   as [Journal.where] gives them. *)
let where p = (p.segment, p.offset, { Journal.ops = p.ops; chain = Wire.Hash.chain p.hash })

let check_digits = 6
let check_length = check_digits + 2

let op_length line =
  let n = String.length line - check_length in
  if n > 0 && line.[n] = ' ' && line.[n + 1] = '#' then Some n else None

let segment_header_of_line line =
  match String.split_on_char ' ' line with
  | [ "#"; "journal"; "3"; ops; chain ]
    when String.starts_with ~prefix:"ops=" ops
         && String.starts_with ~prefix:"chain=" chain -> (
      match int_of_string_opt (String.sub ops 4 (String.length ops - 4)) with
      | Some ops -> Some (ops, String.sub chain 6 (String.length chain - 6))
      | None -> None)
  | _ -> None

let is_blank line =
  String.for_all
    (function ' ' | '\012' | '\n' | '\r' | '\t' -> true | _ -> false)
    line

let read_first path =
  In_channel.with_open_bin path (fun ic ->
      match In_channel.input_line ic with
      | None -> None
      | Some line -> Some (line, pos_in ic))

let header_chain text =
  let hash = Wire.Hash.create () in
  Wire.Hash.feed hash text ~pos:0 ~len:(String.length text);
  Wire.Hash.link hash;
  hash

let top dir =
  let path = Filename.concat dir (Journal.segment_name 0) in
  if not (Sys.file_exists path) then Error Journal.Missing
  else
    match read_first path with
    | None -> Error Journal.Empty
    | Some (text, offset) -> (
        match Journal.header_of_line text with
        | Error reason -> Error (Journal.Bad_header { offset = 0; reason })
        | Ok header ->
            Ok (header, { segment = 0; offset; ops = 0; hash = header_chain text; read = offset }))

let at dir (a : Journal.anchor) =
  match read_first (Filename.concat dir (Journal.segment_name a.ops)) with
  | Some (line, offset) when offset > String.length line ->
      let hash =
        if a.ops = 0 then Some (header_chain line)
        else
          match segment_header_of_line line with
          | Some (ops, chain) when ops = a.ops -> Wire.Hash.of_chain chain
          | _ -> None
      in
      Option.bind hash (fun hash ->
          if Wire.Hash.chain hash = a.chain then
            Some { segment = a.ops; offset; ops = a.ops; hash; read = offset }
          else None)
  | _ | (exception Sys_error _) -> None

let fold dir (p : position) ~init ~f =
  let hash = Wire.Hash.copy p.hash in
  let corrupt segment line offset reason =
    Error (Journal.Corrupt_body { segment; line; offset; reason })
  in
  let rec segment seg ~start ~ops ~read acc =
    let name = Journal.segment_name seg in
    let ic = open_in_bin (Filename.concat dir name) in
    let stop =
      Fun.protect ~finally:(fun () -> close_in_noerr ic) @@ fun () ->
      let number = ref 0 in
      while pos_in ic < start && In_channel.input_line ic <> None do
        incr number
      done;
      let rec go ops acc =
        let offset = pos_in ic in
        match In_channel.input_line ic with
        | None -> `End (ops, offset, acc)
        | Some text when not (pos_in ic > offset + String.length text) ->
            `Torn
              ( { Journal.segment = name; line = !number + 1; offset;
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
                  then Journal.op_of_line (String.sub text 0 len)
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
        if ops <> seg && Sys.file_exists (Filename.concat dir (Journal.segment_name ops))
        then corrupt name t.line t.offset (t.reason ^ ", yet a later segment follows")
        else Ok (acc, Some t, here ops offset)
    | `End (ops, offset, acc) -> (
        let next = Journal.segment_name ops in
        let path = Filename.concat dir next in
        if ops = seg || not (Sys.file_exists path) then Ok (acc, None, here ops offset)
        else
          match read_first path with
          | Some (line, after) when after > String.length line -> (
              match segment_header_of_line line with
              | Some (h_ops, h_chain) when h_ops = ops && h_chain = Wire.Hash.chain hash ->
                  let read = read + offset - start + after in
                  segment ops ~start:after ~ops ~read acc
              | _ ->
                  corrupt next 1 0
                    (Printf.sprintf
                       "segment header %S does not continue the journal (ops=%d \
                        chain=%s)"
                       line ops (Wire.Hash.chain hash)))
          | _ ->
              Ok
                ( acc,
                  Some
                    { Journal.segment = next; line = 1; offset = 0;
                      reason = "the segment header was cut short" },
                  here ops offset ))
  in
  segment p.segment ~start:p.offset ~ops:p.ops ~read:p.read init
