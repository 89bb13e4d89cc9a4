let black _instance ~n =
  {
    Policy.name = "black";
    reconfigure = (fun _view -> Array.make n Types.black);
    codec = Some Policy.stateless;
  }

let has_duplicates colors =
  let sorted = List.sort compare colors in
  let rec dup = function
    | a :: (b :: _ as rest) -> a = b || dup rest
    | [ _ ] | [] -> false
  in
  dup sorted

(* Oracle color lists may contain duplicates (several copies of one
   color); stable_assign requires distinct colors, so fall back to
   positional placement in that case. *)
let place ~current ~desired =
  if has_duplicates desired then begin
    let result = Array.copy current in
    List.iteri (fun slot color -> result.(slot) <- color) desired;
    result
  end
  else Policy.stable_assign ~current ~desired

let static colors _instance ~n =
  let reconfigure (view : Policy.view) =
    if List.length colors > n then
      invalid_arg "Static_policy.static: more colors than resources";
    place ~current:view.cache ~desired:colors
  in
  { Policy.name = "static"; reconfigure; codec = None }

let piecewise segments _instance ~n =
  (match segments with
  | (0, _) :: _ -> ()
  | _ -> invalid_arg "Static_policy.piecewise: first segment must start at 0");
  let rec check = function
    | (r1, _) :: ((r2, _) :: _ as rest) ->
        if r2 <= r1 then
          invalid_arg "Static_policy.piecewise: starts must increase";
        check rest
    | [ _ ] | [] -> ()
  in
  check segments;
  List.iter
    (fun (_, colors) ->
      if List.length colors > n then
        invalid_arg "Static_policy.piecewise: more colors than resources")
    segments;
  let remaining = ref segments in
  let current_colors = ref [] in
  let reconfigure (view : Policy.view) =
    (match !remaining with
    | (start, colors) :: rest when start <= view.round ->
        current_colors := colors;
        remaining := rest
    | _ -> ());
    place ~current:view.cache ~desired:!current_colors
  in
  { Policy.name = "piecewise"; reconfigure; codec = None }
