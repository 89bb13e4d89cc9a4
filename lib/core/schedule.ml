type event =
  | Drop of { color : Types.color; count : int }
  | Reconfigure of {
      resource : int;
      mini_round : int;
      from_color : Types.color;
      to_color : Types.color;
    }
  | Execute of { resource : int; mini_round : int; color : Types.color }

type t = {
  n : int;
  mini_rounds : int;
  events : (Types.round * event) array;
}

let of_events ~n ~mini_rounds trace =
  let events =
    List.filter_map
      (function
        | Rrs_obs.Event.Drop { round; color; count } ->
            Some (round, Drop { color; count })
        | Reconfigure { round; mini_round; resource; from_color; to_color } ->
            Some (round, Reconfigure { resource; mini_round; from_color; to_color })
        | Execute { round; mini_round; resource; color } ->
            Some (round, Execute { resource; mini_round; color })
        | _ -> None)
      trace
  in
  { n; mini_rounds; events = Array.of_list events }

let events_of_round t round =
  Array.fold_right
    (fun (r, e) acc -> if r = round then e :: acc else acc)
    t.events []

let count_if pred t =
  Array.fold_left (fun acc (_, e) -> if pred e then acc + 1 else acc) 0 t.events

let reconfig_count t =
  count_if (function Reconfigure _ -> true | _ -> false) t

let execute_count t = count_if (function Execute _ -> true | _ -> false) t

let drop_count t =
  Array.fold_left
    (fun acc (_, e) -> match e with Drop { count; _ } -> acc + count | _ -> acc)
    0 t.events

let cost ~delta t =
  Cost.make ~reconfig:(delta * reconfig_count t) ~drop:(drop_count t)

let final_cache t =
  let cache = Array.make t.n Types.black in
  Array.iter
    (fun (_, e) ->
      match e with
      | Reconfigure { resource; to_color; _ } -> cache.(resource) <- to_color
      | Drop _ | Execute _ -> ())
    t.events;
  cache

let pp_event fmt (round, event) =
  match event with
  | Drop { color; count } ->
      Format.fprintf fmt "@[<h>r%d drop: %d of color %d@]" round count color
  | Reconfigure { resource; mini_round; from_color; to_color } ->
      Format.fprintf fmt "@[<h>r%d.%d reconfig: resource %d %d -> %d@]" round
        mini_round resource from_color to_color
  | Execute { resource; mini_round; color } ->
      Format.fprintf fmt "@[<h>r%d.%d execute: color %d on resource %d@]" round
        mini_round color resource

let pp fmt t =
  Format.fprintf fmt "schedule: n=%d, mini_rounds=%d, %d events@." t.n
    t.mini_rounds (Array.length t.events);
  Array.iter (fun ev -> Format.fprintf fmt "  %a@." pp_event ev) t.events
