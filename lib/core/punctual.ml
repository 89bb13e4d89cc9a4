type classification = Early | Punctual | Late

let classify ~delay ~arrival ~execution =
  if delay = 1 then begin
    if execution <> arrival then
      invalid_arg "Punctual.classify: infeasible delay-1 execution";
    Punctual
  end
  else if not (Types.is_power_of_two delay) then
    invalid_arg "Punctual.classify: delay must be a power of two"
  else begin
    if execution < arrival || execution >= arrival + delay then
      invalid_arg "Punctual.classify: execution outside the job window";
    let w = delay / 2 in
    let i = arrival / w in
    if execution < (i + 1) * w then Early
    else if execution < (i + 2) * w then Punctual
    else Late
  end

(* Bind each execution of the schedule to a concrete job arrival by
   replaying the instance with earliest-deadline matching (the same
   exchange-argument canonicalisation the validator uses). *)
type bound_execution = {
  round : int;
  resource : int;
  color : Types.color;
  arrival : int;
}

let bind_executions (instance : Instance.t) (t : Schedule.t) =
  let pending = Pending.create ~num_colors:instance.num_colors in
  let arrivals = Instance.arrivals_by_round instance in
  let by_round = Array.make (instance.horizon + 1) [] in
  Array.iter
    (fun (round, e) ->
      if round >= 0 && round <= instance.horizon then
        by_round.(round) <- e :: by_round.(round))
    t.events;
  Array.iteri (fun r evs -> by_round.(r) <- List.rev evs) by_round;
  let out = ref [] in
  let expired = Batch.create () in
  for round = 0 to instance.horizon do
    Pending.expire pending ~now:round expired;
    List.iter
      (fun (color, count) ->
        Pending.add pending color
          ~deadline:(round + instance.delay.(color))
          ~count)
      (if round < Array.length arrivals then arrivals.(round) else []);
    List.iter
      (function
        | Schedule.Execute { resource; color; _ } -> (
            match Pending.execute_one pending color with
            | Some deadline ->
                out :=
                  {
                    round;
                    resource;
                    color;
                    arrival = deadline - instance.delay.(color);
                  }
                  :: !out
            | None ->
                invalid_arg
                  "Punctual: schedule executes a job that is not pending")
        | Schedule.Drop _ | Schedule.Reconfigure _ -> ())
      by_round.(round)
  done;
  List.rev !out

let census instance t =
  let early = ref 0 and punctual = ref 0 and late = ref 0 in
  List.iter
    (fun b ->
      match
        classify ~delay:instance.Instance.delay.(b.color) ~arrival:b.arrival
          ~execution:b.round
      with
      | Early -> incr early
      | Punctual -> incr punctual
      | Late -> incr late)
    (bind_executions instance t);
  (!early, !punctual, !late)

let is_punctual instance t =
  let early, _, late = census instance t in
  early = 0 && late = 0

(* ------------------------------------------------------------------ *)
(* The Lemma 5.3 construction                                          *)
(* ------------------------------------------------------------------ *)

(* is resource [k] of the input configured to [color] throughout both
   half-blocks [i] and [i+1] of width [w]? *)
let configured_throughout timeline ~horizon k ~color ~w ~i =
  let lo = i * w in
  let hi = min (((i + 2) * w) - 1) horizon in
  lo <= horizon
  &&
  let rec constant r = r > hi || (timeline.(k).(r) = color && constant (r + 1)) in
  constant lo

let make_punctual (instance : Instance.t) (t : Schedule.t) =
  if t.mini_rounds <> 1 then
    invalid_arg "Punctual.make_punctual: input must be uni-speed";
  Array.iter
    (fun d ->
      if d <> 1 && not (Types.is_power_of_two d) then
        invalid_arg "Punctual.make_punctual: delays must be powers of two")
    instance.delay;
  let horizon = instance.horizon in
  let m = t.n in
  (* reuse Aggregate's timeline idea locally *)
  let timeline = Array.make_matrix m (horizon + 1) Types.black in
  Array.iter
    (fun (round, e) ->
      match e with
      | Schedule.Reconfigure { resource; to_color; _ } ->
          for r = round to horizon do
            timeline.(resource).(r) <- to_color
          done
      | Schedule.Drop _ | Schedule.Execute _ -> ())
    t.events;
  let bound = bind_executions instance t in
  (* output state *)
  let n' = 7 * m in
  let busy = Array.make_matrix n' (horizon + 1) false in
  let executions : (int * int, Types.color) Hashtbl.t = Hashtbl.create 1024 in
  let place ~resource ~round color =
    if round < 0 || round > horizon || busy.(resource).(round) then false
    else begin
      busy.(resource).(round) <- true;
      Hashtbl.replace executions (resource, round) color;
      true
    end
  in
  let fail_placement what =
    invalid_arg ("Punctual.make_punctual: could not place a " ^ what)
  in
  (* pack [jobs] executions of [color] into the first free slots of
     [resources] within rounds [lo, hi] *)
  let pack ~resources ~lo ~hi ~color count =
    let remaining = ref count in
    List.iter
      (fun resource ->
        let round = ref lo in
        while !remaining > 0 && !round <= min hi horizon do
          if place ~resource ~round:!round color then decr remaining;
          incr round
        done)
      resources;
    if !remaining > 0 then fail_placement "packed nonspecial execution"
  in
  (* process each original resource independently *)
  for k = 0 to m - 1 do
    let mine = List.filter (fun b -> b.resource = k) bound in
    let classified =
      List.map
        (fun b ->
          ( b,
            classify ~delay:instance.delay.(b.color) ~arrival:b.arrival
              ~execution:b.round ))
        mine
    in
    let of_class cls =
      List.filter_map
        (fun (b, c) -> if c = cls then Some b else None)
        classified
    in
    (* punctual executions stay put on resource 7k+3 *)
    List.iter
      (fun b ->
        if not (place ~resource:((7 * k) + 3) ~round:b.round b.color) then
          fail_placement "punctual execution")
      (of_class Punctual);
    (* early: specials shift +w onto 7k; the rest pack into the next
       half-block on 7k+1, 7k+2 *)
    let shift_stream ~cls ~direction ~special_resource ~pack_resources =
      let members = of_class cls in
      let special, nonspecial =
        List.partition
          (fun b ->
            let w = instance.delay.(b.color) / 2 in
            (* the two half-blocks the stream must span: the execution's
               half-block and the one the job moves into *)
            let exec_hb = b.round / w in
            let first_hb = if direction > 0 then exec_hb else exec_hb - 1 in
            first_hb >= 0
            && configured_throughout timeline ~horizon k ~color:b.color ~w
                 ~i:first_hb)
          members
      in
      List.iter
        (fun b ->
          let w = instance.delay.(b.color) / 2 in
          let target = b.round + (direction * w) in
          if not (place ~resource:special_resource ~round:target b.color) then
            fail_placement "special execution")
        special;
      (* pack nonspecials ascending by delay bound, per half-block, per
         color: all land in the job's punctual half-block *)
      let groups = Hashtbl.create 16 in
      List.iter
        (fun b ->
          let w = instance.delay.(b.color) / 2 in
          let i = b.arrival / w in
          let key = (instance.delay.(b.color), i, b.color) in
          let prev = Option.value ~default:0 (Hashtbl.find_opt groups key) in
          Hashtbl.replace groups key (prev + 1))
        nonspecial;
      Hashtbl.fold (fun key count acc -> (key, count) :: acc) groups []
      |> List.sort compare
      |> List.iter (fun ((delay, i, color), count) ->
             let w = delay / 2 in
             pack ~resources:pack_resources ~lo:((i + 1) * w)
               ~hi:(((i + 2) * w) - 1)
               ~color count)
    in
    shift_stream ~cls:Early ~direction:1 ~special_resource:(7 * k)
      ~pack_resources:[ (7 * k) + 1; (7 * k) + 2 ];
    shift_stream ~cls:Late ~direction:(-1)
      ~special_resource:((7 * k) + 4)
      ~pack_resources:[ (7 * k) + 5; (7 * k) + 6 ]
  done;
  (* emit, reconfiguring lazily *)
  let current = Array.make n' Types.black in
  let events = ref [] in
  for round = 0 to horizon do
    for resource = 0 to n' - 1 do
      match Hashtbl.find_opt executions (resource, round) with
      | Some color when current.(resource) <> color ->
          events :=
            ( round,
              Schedule.Reconfigure
                {
                  resource;
                  mini_round = 0;
                  from_color = current.(resource);
                  to_color = color;
                } )
            :: !events;
          current.(resource) <- color
      | _ -> ()
    done;
    for resource = 0 to n' - 1 do
      match Hashtbl.find_opt executions (resource, round) with
      | Some color ->
          events :=
            (round, Schedule.Execute { resource; mini_round = 0; color })
            :: !events
      | None -> ()
    done
  done;
  { Schedule.n = n'; mini_rounds = 1; events = Array.of_list (List.rev !events) }
