let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: rest -> x :: take (k - 1) rest

let round_robin (instance : Instance.t) ~n =
  let cache = Cache_state.create ~num_colors:instance.num_colors ~distinct_slots:n in
  let cursor = ref 0 in
  let reconfigure (view : Policy.view) =
    let num_colors = instance.num_colors in
    (* collect up to n nonidle colors starting at the cursor *)
    let desired = ref [] in
    let found = ref 0 in
    let scanned = ref 0 in
    while !found < n && !scanned < num_colors do
      let color = (!cursor + !scanned) mod num_colors in
      if not (Pending.is_idle view.pending color) then begin
        desired := color :: !desired;
        incr found
      end;
      incr scanned
    done;
    cursor := (!cursor + 1) mod num_colors;
    Cache_state.assign cache ~desired:(List.rev !desired);
    Cache_state.to_assignment cache ~replicated:false
  in
  let codec =
    {
      Policy.save =
        (fun w ->
          Cache_state.save cache w;
          Wire.add_int w !cursor);
      load =
        (fun r ->
          Cache_state.load cache r;
          cursor := Wire.int r);
    }
  in
  { Policy.name = "round-robin"; reconfigure; codec = Some codec }

let greedy_with_hysteresis ~name ~threshold (instance : Instance.t) ~n =
  if threshold < 0 then invalid_arg "Naive_policies: negative threshold";
  let cache = Cache_state.create ~num_colors:instance.num_colors ~distinct_slots:n in
  let reconfigure (view : Policy.view) =
    let backlog color = Pending.total view.pending color in
    (* challengers: nonidle colors by descending backlog *)
    let challengers = ref [] in
    Pending.iter_nonidle view.pending (fun color pending ->
        challengers := (pending, color) :: !challengers);
    let ranked =
      List.sort (fun a b -> compare b a) !challengers |> List.map snd
    in
    let incumbents = Cache_state.cached_colors cache in
    (* keep incumbents unless a challenger beats them by > threshold *)
    let desired = ref (List.filter (fun c -> backlog c > 0 || threshold > 0) incumbents) in
    let is_desired c = List.mem c !desired in
    List.iter
      (fun challenger ->
        if (not (is_desired challenger)) && List.length !desired < n then
          desired := !desired @ [ challenger ]
        else if not (is_desired challenger) then begin
          (* full: evict the weakest incumbent if clearly beaten *)
          let weakest =
            List.fold_left
              (fun acc c ->
                match acc with
                | Some w when backlog w <= backlog c -> acc
                | _ -> Some c)
              None !desired
          in
          match weakest with
          | Some w when backlog challenger > backlog w + threshold ->
              desired :=
                List.filter (fun c -> c <> w) !desired @ [ challenger ]
          | _ -> ()
        end)
      (take (2 * n) ranked);
    Cache_state.assign cache ~desired:!desired;
    Cache_state.to_assignment cache ~replicated:false
  in
  { Policy.name; reconfigure; codec = Some (Cache_state.codec cache) }

let classic_lru (instance : Instance.t) ~n =
  let cache = Cache_state.create ~num_colors:instance.num_colors ~distinct_slots:n in
  let last_request = Array.make instance.num_colors (-1) in
  let reconfigure (view : Policy.view) =
    List.iter
      (fun (color, count) ->
        if count > 0 then last_request.(color) <- view.round)
      view.arrivals;
    let requested = ref [] in
    Array.iteri
      (fun color round ->
        if round >= 0 then requested := (-round, color) :: !requested)
      last_request;
    let by_recency = List.map snd (List.sort compare !requested) in
    let rec take k = function
      | [] -> []
      | _ when k = 0 -> []
      | x :: r -> x :: take (k - 1) r
    in
    Cache_state.assign cache ~desired:(take n by_recency);
    Cache_state.to_assignment cache ~replicated:false
  in
  { Policy.name = "classic-lru"; reconfigure; codec = None }

let greedy_backlog instance ~n =
  greedy_with_hysteresis ~name:"greedy-backlog" ~threshold:0 instance ~n

let greedy_backlog_hysteresis ~threshold instance ~n =
  greedy_with_hysteresis
    ~name:(Printf.sprintf "greedy-backlog[h=%d]" threshold)
    ~threshold instance ~n
