type t = { columns : string array; mutable rows : string array list }

let create ~columns =
  if columns = [] then invalid_arg "Table.create: no columns";
  { columns = Array.of_list columns; rows = [] }

let add_row t cells =
  if List.length cells <> Array.length t.columns then
    invalid_arg "Table.add_row: wrong arity";
  t.rows <- Array.of_list cells :: t.rows

let row_count t = List.length t.rows
let cell_int = string_of_int

let cell_float ?(decimals = 2) v =
  if Float.is_integer v && Float.abs v < 1e15 && decimals = 0 then
    Printf.sprintf "%.0f" v
  else if v = infinity then "inf"
  else if v = neg_infinity then "-inf"
  else if Float.is_nan v then "nan"
  else Printf.sprintf "%.*f" decimals v

let cell_cost ~reconfig ~drop =
  Printf.sprintf "%d (%d+%d)" (reconfig + drop) reconfig drop

let looks_numeric s =
  s <> ""
  && String.for_all
       (fun c ->
         (c >= '0' && c <= '9')
         || c = '.' || c = '-' || c = '+' || c = 'e' || c = '(' || c = ')'
         || c = ' ' || c = 'x' || c = 'i' || c = 'n' || c = 'f')
       s

let rows_in_order t = List.rev t.rows

let widths t =
  let w = Array.map String.length t.columns in
  List.iter
    (fun row ->
      Array.iteri (fun i cell -> w.(i) <- max w.(i) (String.length cell)) row)
    (rows_in_order t);
  w

let pad ~right s width =
  let gap = width - String.length s in
  if gap <= 0 then s
  else if right then String.make gap ' ' ^ s
  else s ^ String.make gap ' '

let to_string t =
  let w = widths t in
  let buf = Buffer.create 256 in
  let numeric_col =
    Array.mapi
      (fun i _ ->
        t.rows <> []
        && List.for_all (fun row -> looks_numeric row.(i)) (rows_in_order t))
      t.columns
  in
  let emit_row cells =
    Array.iteri
      (fun i cell ->
        if i > 0 then Buffer.add_string buf "  ";
        Buffer.add_string buf (pad ~right:numeric_col.(i) cell w.(i)))
      cells;
    Buffer.add_char buf '\n'
  in
  emit_row t.columns;
  Array.iteri
    (fun i width ->
      if i > 0 then Buffer.add_string buf "  ";
      Buffer.add_string buf (String.make width '-'))
    w;
  Buffer.add_char buf '\n';
  List.iter emit_row (rows_in_order t);
  Buffer.contents buf

let to_markdown t =
  let buf = Buffer.create 256 in
  let emit cells =
    Buffer.add_string buf "| ";
    Buffer.add_string buf (String.concat " | " (Array.to_list cells));
    Buffer.add_string buf " |\n"
  in
  emit t.columns;
  emit (Array.map (fun _ -> "---") t.columns);
  List.iter emit (rows_in_order t);
  Buffer.contents buf

let print ?title t =
  (match title with
  | Some title ->
      print_endline title;
      print_endline (String.make (String.length title) '=')
  | None -> ());
  print_string (to_string t);
  print_newline ()
