type t =
  | Drop of { round : int; color : int; count : int }
  | Arrival of { round : int; color : int; count : int }
  | Reconfigure of {
      round : int;
      mini_round : int;
      resource : int;
      from_color : int;
      to_color : int;
    }
  | Execute of { round : int; mini_round : int; resource : int; color : int }
  | Mini_round of { round : int; mini_round : int }
  | Round_end of { round : int; delta : int; latency_us : int }
  | Epoch_open of { round : int; color : int }
  | Epoch_close of { round : int; color : int; epochs_ended : int }
  | Counter_wrap of { round : int; color : int; wraps : int }
  | Timestamp_update of { round : int; color : int }
  | Super_epoch of {
      round : int;
      index : int;
      active_colors : int;
      updates : int;
    }
  | Credit of { round : int; color : int; amount : int }

let kind = function
  | Drop _ -> "drop"
  | Arrival _ -> "arrival"
  | Reconfigure _ -> "reconfigure"
  | Execute _ -> "execute"
  | Mini_round _ -> "mini_round"
  | Round_end _ -> "round_end"
  | Epoch_open _ -> "epoch_open"
  | Epoch_close _ -> "epoch_close"
  | Counter_wrap _ -> "counter_wrap"
  | Timestamp_update _ -> "timestamp_update"
  | Super_epoch _ -> "super_epoch"
  | Credit _ -> "credit"

let round = function
  | Drop { round; _ }
  | Arrival { round; _ }
  | Reconfigure { round; _ }
  | Execute { round; _ }
  | Mini_round { round; _ }
  | Round_end { round; _ }
  | Epoch_open { round; _ }
  | Epoch_close { round; _ }
  | Counter_wrap { round; _ }
  | Timestamp_update { round; _ }
  | Super_epoch { round; _ }
  | Credit { round; _ } ->
      round

let to_json event =
  let fields =
    match event with
    | Drop { round; color; count } ->
        [ ("round", round); ("color", color); ("count", count) ]
    | Arrival { round; color; count } ->
        [ ("round", round); ("color", color); ("count", count) ]
    | Reconfigure { round; mini_round; resource; from_color; to_color } ->
        [
          ("round", round);
          ("mini_round", mini_round);
          ("resource", resource);
          ("from_color", from_color);
          ("to_color", to_color);
        ]
    | Execute { round; mini_round; resource; color } ->
        [
          ("round", round);
          ("mini_round", mini_round);
          ("resource", resource);
          ("color", color);
        ]
    | Mini_round { round; mini_round } ->
        [ ("round", round); ("mini_round", mini_round) ]
    | Round_end { round; delta; latency_us } ->
        [ ("round", round); ("delta", delta); ("latency_us", latency_us) ]
    | Epoch_open { round; color } -> [ ("round", round); ("color", color) ]
    | Epoch_close { round; color; epochs_ended } ->
        [ ("round", round); ("color", color); ("epochs_ended", epochs_ended) ]
    | Counter_wrap { round; color; wraps } ->
        [ ("round", round); ("color", color); ("wraps", wraps) ]
    | Timestamp_update { round; color } ->
        [ ("round", round); ("color", color) ]
    | Super_epoch { round; index; active_colors; updates } ->
        [
          ("round", round);
          ("index", index);
          ("active_colors", active_colors);
          ("updates", updates);
        ]
    | Credit { round; color; amount } ->
        [ ("round", round); ("color", color); ("amount", amount) ]
  in
  Json.Assoc
    (("type", Json.String (kind event))
    :: List.map (fun (name, v) -> (name, Json.Int v)) fields)

let ( let* ) = Result.bind

let of_json json =
  let field name =
    match Json.member name json with
    | Some v -> Json.to_int v
    | None -> Error (Printf.sprintf "missing field %S" name)
  in
  let* k =
    match Json.member "type" json with
    | Some v -> Json.to_string_lit v
    | None -> Error "missing field \"type\""
  in
  match k with
  | "drop" ->
      let* round = field "round" in
      let* color = field "color" in
      let* count = field "count" in
      Ok (Drop { round; color; count })
  | "arrival" ->
      let* round = field "round" in
      let* color = field "color" in
      let* count = field "count" in
      Ok (Arrival { round; color; count })
  | "reconfigure" ->
      let* round = field "round" in
      let* mini_round = field "mini_round" in
      let* resource = field "resource" in
      let* from_color = field "from_color" in
      let* to_color = field "to_color" in
      Ok (Reconfigure { round; mini_round; resource; from_color; to_color })
  | "execute" ->
      let* round = field "round" in
      let* mini_round = field "mini_round" in
      let* resource = field "resource" in
      let* color = field "color" in
      Ok (Execute { round; mini_round; resource; color })
  | "mini_round" ->
      let* round = field "round" in
      let* mini_round = field "mini_round" in
      Ok (Mini_round { round; mini_round })
  | "round_end" ->
      let* round = field "round" in
      let* delta = field "delta" in
      let* latency_us = field "latency_us" in
      Ok (Round_end { round; delta; latency_us })
  | "epoch_open" ->
      let* round = field "round" in
      let* color = field "color" in
      Ok (Epoch_open { round; color })
  | "epoch_close" ->
      let* round = field "round" in
      let* color = field "color" in
      let* epochs_ended = field "epochs_ended" in
      Ok (Epoch_close { round; color; epochs_ended })
  | "counter_wrap" ->
      let* round = field "round" in
      let* color = field "color" in
      let* wraps = field "wraps" in
      Ok (Counter_wrap { round; color; wraps })
  | "timestamp_update" ->
      let* round = field "round" in
      let* color = field "color" in
      Ok (Timestamp_update { round; color })
  | "super_epoch" ->
      let* round = field "round" in
      let* index = field "index" in
      let* active_colors = field "active_colors" in
      let* updates = field "updates" in
      Ok (Super_epoch { round; index; active_colors; updates })
  | "credit" ->
      let* round = field "round" in
      let* color = field "color" in
      let* amount = field "amount" in
      Ok (Credit { round; color; amount })
  | other -> Error (Printf.sprintf "unknown event type %S" other)

let to_line event = Json.to_string (to_json event)

let of_line line =
  let* json = Json.parse line in
  of_json json
