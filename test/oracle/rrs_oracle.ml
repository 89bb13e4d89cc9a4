(* Reference implementations of the ΔLRU/EDF policy family (paper
   Sections 3.1.1-3.1.3, Seq-EDF from Section 3.3) and of Par-EDF
   (Lemma 3.7): the original list-sort logic, which re-ranks the whole
   eligible set every round in O(C + E log E).  Production (lib/core)
   keeps the same orders incrementally in a Ranking.Index; the
   differential suite requires both to produce the same Engine.result,
   schedule included. *)

open Rrs_core

(* The first [min k (length xs)] elements of [xs]; [k <= 0] gives []. *)
let rec take k = function
  | [] -> []
  | _ when k <= 0 -> []
  | x :: rest -> x :: take (k - 1) rest

(* All eligible colors not excluded, best rank first. *)
let ranked_eligible elig pending ~delay ~exclude =
  let keyed =
    List.filter_map
      (fun color ->
        if exclude color then None
        else Some (color, Ranking.key_of_color elig pending ~delay color))
      (Eligibility.eligible_colors elig)
  in
  List.sort (fun (_, a) (_, b) -> Ranking.compare a b) keyed

(* The ΔLRU selection order: most recent timestamp first, ties by the
   consistent color order (ascending id), from sorting the pairs
   (negated timestamp, id). *)
let timestamp_order elig colors =
  let keyed =
    List.map (fun color -> (-Eligibility.timestamp elig color, color)) colors
  in
  List.map snd (List.sort Stdlib.compare keyed)

let dlru (instance : Instance.t) ~n =
  if n < 2 || n mod 2 <> 0 then
    invalid_arg "Rrs_oracle.dlru: n must be a positive multiple of 2";
  let elig = Eligibility.create instance in
  let cache =
    Cache_state.create ~num_colors:instance.num_colors ~distinct_slots:(n / 2)
  in
  let reconfigure (view : Policy.view) =
    Eligibility.begin_round elig ~view ~in_cache:(Cache_state.mem cache);
    Cache_state.assign cache
      ~desired:
        (take (n / 2) (timestamp_order elig (Eligibility.eligible_colors elig)));
    Cache_state.to_assignment cache ~replicated:true
  in
  { Policy.name = "dlru"; reconfigure; codec = None }

(* The EDF scheme with a ΔLRU component of [lru] slots ([lru = 0] is
   plain EDF): the [lru] freshest eligible colors stay cached; every
   nonidle color among the top [distinct_slots - lru] ranked non-LRU
   colors that is not cached comes in; capacity pressure evicts the
   worst-ranked non-LRU colors. *)
let scheme ~name ~lru ~distinct_slots ~replicated (instance : Instance.t) =
  let elig = Eligibility.create instance in
  let cache =
    Cache_state.create ~num_colors:instance.num_colors ~distinct_slots
  in
  let delay = instance.delay in
  let reconfigure (view : Policy.view) =
    Eligibility.begin_round elig ~view ~in_cache:(Cache_state.mem cache);
    let lru_set =
      take lru (timestamp_order elig (Eligibility.eligible_colors elig))
    in
    let is_lru color = List.mem color lru_set in
    let additions =
      List.filter_map
        (fun (color, key) ->
          if Ranking.is_nonidle_eligible key && not (Cache_state.mem cache color)
          then Some color
          else None)
        (take (distinct_slots - lru)
           (ranked_eligible elig view.pending ~delay ~exclude:is_lru))
    in
    let candidates =
      List.map
        (fun color ->
          (color, Ranking.key_of_color elig view.pending ~delay color))
        (List.filter
           (fun color -> not (is_lru color))
           (Cache_state.cached_colors cache)
        @ additions)
    in
    let kept =
      candidates
      |> List.sort (fun (_, a) (_, b) -> Ranking.compare a b)
      |> take (distinct_slots - List.length lru_set)
      |> List.map fst
    in
    Cache_state.assign cache ~desired:(lru_set @ kept);
    Cache_state.to_assignment cache ~replicated
  in
  { Policy.name; reconfigure; codec = None }

let edf instance ~n =
  if n < 2 || n mod 2 <> 0 then
    invalid_arg "Rrs_oracle.edf: n must be a positive multiple of 2";
  scheme ~name:"edf" ~lru:0 ~distinct_slots:(n / 2) ~replicated:true instance

let seq_edf instance ~n =
  if n < 1 then invalid_arg "Rrs_oracle.seq_edf: n < 1";
  scheme ~name:"seq-edf" ~lru:0 ~distinct_slots:n ~replicated:false instance

let dlru_edf instance ~n =
  if n < 4 || n mod 4 <> 0 then
    invalid_arg "Rrs_oracle.dlru_edf: n must be a positive multiple of 4";
  scheme ~name:"dlru-edf" ~lru:(n / 4) ~distinct_slots:(n / 2)
    ~replicated:true instance

(* Par-EDF: each of the [m] slots of a round executes one job of the
   nonidle color with the smallest (earliest deadline, delay bound,
   color), found by a linear scan.  Only the executed color's key
   changes between two picks, so this is the order a heap rebuilt once
   per round would pop. *)
let par_edf (instance : Instance.t) ~m : Par_edf.result =
  if m < 1 then invalid_arg "Rrs_oracle.par_edf: m < 1";
  let pending = Pending.create ~num_colors:instance.num_colors in
  let arrivals = Instance.arrivals_by_round instance in
  let dropped = ref 0 in
  let executed = ref 0 in
  let drops_by_color = Array.make instance.num_colors 0 in
  let best () =
    let best = ref None in
    Pending.iter_nonidle pending (fun color _count ->
        match Pending.earliest_deadline pending color with
        | Some deadline ->
            let key = (deadline, instance.delay.(color), color) in
            if Option.fold ~none:true ~some:(fun b -> key < b) !best then
              best := Some key
        | None -> ());
    Option.map (fun (_, _, color) -> color) !best
  in
  for round = 0 to instance.horizon do
    List.iter
      (fun (color, count) ->
        dropped := !dropped + count;
        drops_by_color.(color) <- drops_by_color.(color) + count)
      (Pending.expire pending ~now:round);
    if round < Array.length arrivals then
      List.iter
        (fun (color, count) ->
          Pending.add pending color
            ~deadline:(round + instance.delay.(color))
            ~count)
        arrivals.(round);
    for _ = 1 to m do
      match best () with
      | Some color -> if Pending.execute pending color then incr executed
      | None -> ()
    done
  done;
  { drop_cost = !dropped; executed = !executed; drops_by_color }
