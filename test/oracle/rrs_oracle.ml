(* Reference implementations of the ΔLRU/EDF policy family (paper
   Sections 3.1.1-3.1.3, Seq-EDF from Section 3.3) and of Par-EDF
   (Lemma 3.7), written to share as little with lib/core as the engine
   allows:
   - the policies re-rank the whole eligible set every round by list
     sorts (O(C + E log E)) over their own eager eligibility
     ({!Eager}: every color visited at every window boundary) and
     their own tuple rank key, where production keeps the orders
     incrementally in a Ranking.Index over the lazy-boundary
     Eligibility;
   - Par-EDF keeps its pending jobs in per-color lists, where
     production uses Pending's rings.
   The differential suite requires both sides to produce the same
   Engine.result, schedule included.  [ranked_eligible] and
   [timestamp_order] sort a production Eligibility.t: the reference
   orders test_ranking checks Ranking.Index against. *)

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

(* ---- the eager eligibility reference ---------------------------- *)

(* Today's production machinery before boundaries went lazy: at every
   window boundary of every color, in (boundary, color) order, sync the
   timestamp to the last wrap, end the epoch of an eligible uncached
   color, and move the window.  [changes] logs the change events of the
   last [begin_round] in production's order. *)
module Eager = struct
  type color_state = {
    mutable cnt : int;
    mutable dd : int;
    mutable eligible : bool;
    mutable last_wrap : int;
    mutable timestamp : int;
    mutable epochs_ended : int;
    mutable active_epoch : bool;
    mutable wrap_events : int;
  }

  type t = {
    delta : int;
    delay : int array;
    colors : color_state array;
    mutable last_round : int;
    mutable total_epochs_ended : int;
    mutable eligible_drops : int;
    mutable ineligible_drops : int;
    mutable log : (Eligibility.change * Types.color) list; (* newest first *)
  }

  let create (instance : Instance.t) =
    {
      delta = instance.delta;
      delay = instance.delay;
      colors =
        Array.init instance.num_colors (fun _ ->
            {
              cnt = 0;
              dd = 0;
              eligible = false;
              last_wrap = -1;
              timestamp = -1;
              epochs_ended = 0;
              active_epoch = false;
              wrap_events = 0;
            });
      last_round = -1;
      total_epochs_ended = 0;
      eligible_drops = 0;
      ineligible_drops = 0;
      log = [];
    }

  let log t change color = t.log <- (change, color) :: t.log

  let boundary t ~round ~in_cache color =
    let c = t.colors.(color) in
    if c.timestamp <> c.last_wrap then begin
      c.timestamp <- c.last_wrap;
      log t Eligibility.Timestamp_bumped color
    end;
    if c.eligible && not (in_cache color) then begin
      c.eligible <- false;
      c.cnt <- 0;
      c.epochs_ended <- c.epochs_ended + 1;
      c.active_epoch <- false;
      t.total_epochs_ended <- t.total_epochs_ended + 1;
      log t Eligibility.Became_ineligible color
    end;
    c.dd <- round + t.delay.(color)

  let arrival t ~round (color, count) =
    let c = t.colors.(color) in
    if count > 0 then begin
      c.active_epoch <- true;
      c.cnt <- c.cnt + count;
      if c.cnt >= t.delta then begin
        c.cnt <- c.cnt mod t.delta;
        c.last_wrap <- round;
        c.wrap_events <- c.wrap_events + 1;
        if not c.eligible then begin
          c.eligible <- true;
          log t Eligibility.Became_eligible color
        end
      end
    end

  (* [arrivals] and [dropped] as the round's (color, count) lists; a
     repeated call for the same round does nothing *)
  let begin_round t ~round ~arrivals ~dropped ~in_cache =
    if round > t.last_round then begin
      t.last_round <- round;
      t.log <- [];
      List.iter
        (fun (color, count) ->
          if t.colors.(color).eligible then
            t.eligible_drops <- t.eligible_drops + count
          else t.ineligible_drops <- t.ineligible_drops + count)
        dropped;
      (* a boundary passed over by skipped rounds is processed now *)
      let due =
        List.filter
          (fun color -> t.colors.(color).dd <= round)
          (List.init (Array.length t.colors) Fun.id)
      in
      List.iter
        (boundary t ~round ~in_cache)
        (List.sort
           (fun a b -> compare (t.colors.(a).dd, a) (t.colors.(b).dd, b))
           due);
      List.iter (arrival t ~round) arrivals
    end

  let of_view t (view : Policy.view) ~in_cache =
    begin_round t ~round:view.round ~arrivals:(Batch.to_list view.arrivals)
      ~dropped:(Batch.to_list view.dropped) ~in_cache

  let changes t = List.rev t.log
  let is_eligible t color = t.colors.(color).eligible
  let timestamp t color = t.colors.(color).timestamp
  let color_deadline t color = t.colors.(color).dd
  let counter t color = t.colors.(color).cnt
  let epochs_ended t color = t.colors.(color).epochs_ended
  let wrap_events t color = t.colors.(color).wrap_events
  let eligible_drops t = t.eligible_drops
  let ineligible_drops t = t.ineligible_drops

  let epochs_total t =
    Array.fold_left
      (fun acc c -> acc + c.epochs_ended + if c.active_epoch then 1 else 0)
      0 t.colors

  let eligible_colors t =
    List.filter (is_eligible t) (List.init (Array.length t.colors) Fun.id)

  (* the layout of Eligibility.save *)
  let save t w =
    let per f = Array.to_list (Array.map f t.colors) in
    Wire.add_ints w
      (Array.of_list
         ([
            t.last_round;
            t.total_epochs_ended;
            t.eligible_drops;
            t.ineligible_drops;
          ]
         @ per (fun c -> c.cnt)
         @ per (fun c -> c.dd)
         @ per (fun c ->
               (if c.eligible then 1 else 0) lor if c.active_epoch then 2 else 0)
         @ per (fun c -> c.last_wrap)
         @ per (fun c -> c.timestamp)
         @ per (fun c -> c.epochs_ended)
         @ per (fun c -> c.wrap_events)))
end

(* ---- the reference policies --------------------------------------- *)

(* The EDF rank key as a plain tuple (klass, deadline, delay, color),
   compared structurally: nonidle eligible colors first (by earliest
   pending deadline), then idle eligible ones (by color deadline), then
   the ineligible ones by color id. *)
let rank_key elig pending ~delay color =
  if not (Eager.is_eligible elig color) then (2, 0, 0, color)
  else
    match Pending.earliest_deadline pending color with
    | Some d -> (0, d, delay.(color), color)
    | None -> (1, Eager.color_deadline elig color, delay.(color), color)

let nonidle_eligible (klass, _, _, _) = klass = 0

let ranked elig pending ~delay ~exclude =
  List.sort
    (fun (_, a) (_, b) -> compare a b)
    (List.filter_map
       (fun color ->
         if exclude color then None
         else Some (color, rank_key elig pending ~delay color))
       (Eager.eligible_colors elig))

let recency elig =
  List.map snd
    (List.sort compare
       (List.map
          (fun color -> (-Eager.timestamp elig color, color))
          (Eager.eligible_colors elig)))

let dlru (instance : Instance.t) ~n =
  if n < 2 || n mod 2 <> 0 then
    invalid_arg "Rrs_oracle.dlru: n must be a positive multiple of 2";
  let elig = Eager.create instance in
  let cache =
    Cache_state.create ~num_colors:instance.num_colors ~distinct_slots:(n / 2)
  in
  let reconfigure (view : Policy.view) =
    Eager.of_view elig view ~in_cache:(Cache_state.mem cache);
    Cache_state.assign cache ~desired:(take (n / 2) (recency elig));
    Cache_state.to_assignment cache ~replicated:true
  in
  { Policy.name = "dlru"; reconfigure; codec = None }

(* The EDF scheme with a ΔLRU component of [lru] slots ([lru = 0] is
   plain EDF): the [lru] freshest eligible colors stay cached; every
   nonidle color among the top [distinct_slots - lru] ranked non-LRU
   colors that is not cached comes in; capacity pressure evicts the
   worst-ranked non-LRU colors. *)
let scheme ~name ~lru ~distinct_slots ~replicated (instance : Instance.t) =
  let elig = Eager.create instance in
  let cache =
    Cache_state.create ~num_colors:instance.num_colors ~distinct_slots
  in
  let delay = instance.delay in
  let reconfigure (view : Policy.view) =
    Eager.of_view elig view ~in_cache:(Cache_state.mem cache);
    let lru_set = take lru (recency elig) in
    let is_lru color = List.mem color lru_set in
    let additions =
      List.filter_map
        (fun (color, key) ->
          if nonidle_eligible key && not (Cache_state.mem cache color) then
            Some color
          else None)
        (take (distinct_slots - lru)
           (ranked elig view.pending ~delay ~exclude:is_lru))
    in
    let candidates =
      List.map
        (fun color -> (color, rank_key elig view.pending ~delay color))
        (List.filter
           (fun color -> not (is_lru color))
           (Cache_state.cached_colors cache)
        @ additions)
    in
    let kept =
      candidates
      |> List.sort (fun (_, a) (_, b) -> compare a b)
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
   per round would pop.  Pending jobs are per-color lists of
   (deadline, count) buckets, front first. *)
let par_edf (instance : Instance.t) ~m : Par_edf.result =
  if m < 1 then invalid_arg "Rrs_oracle.par_edf: m < 1";
  let buckets = Array.make instance.num_colors [] in
  let arrivals = Instance.arrivals_by_round instance in
  let dropped = ref 0 in
  let executed = ref 0 in
  let drops_by_color = Array.make instance.num_colors 0 in
  let best () =
    let best = ref None in
    Array.iteri
      (fun color queue ->
        match queue with
        | (deadline, _) :: _ ->
            let key = (deadline, instance.delay.(color), color) in
            if Option.fold ~none:true ~some:(fun b -> key < b) !best then
              best := Some key
        | [] -> ())
      buckets;
    Option.map (fun (_, _, color) -> color) !best
  in
  for round = 0 to instance.horizon do
    Array.iteri
      (fun color queue ->
        let gone, kept = List.partition (fun (d, _) -> d <= round) queue in
        let count = List.fold_left (fun acc (_, c) -> acc + c) 0 gone in
        dropped := !dropped + count;
        drops_by_color.(color) <- drops_by_color.(color) + count;
        buckets.(color) <- kept)
      buckets;
    if round < Array.length arrivals then
      List.iter
        (fun (color, count) ->
          let deadline = round + instance.delay.(color) in
          buckets.(color) <- buckets.(color) @ [ (deadline, count) ])
        arrivals.(round);
    for _ = 1 to m do
      match best () with
      | Some color -> (
          incr executed;
          match buckets.(color) with
          | (_, 1) :: rest -> buckets.(color) <- rest
          | (d, c) :: rest -> buckets.(color) <- (d, c - 1) :: rest
          | [] -> assert false)
      | None -> ()
    done
  done;
  { drop_cost = !dropped; executed = !executed; drops_by_color }

(* ---- the int code's array reader ---------------------------------- *)

(* [Wire.ints] as it was before sections were decoded in place: the
   count, then a fresh array filled one [ref]-based int decode at a
   time, over [s.[pos ..]].  It accepts the encodings [Wire.add_int]
   never writes (a final digit 0 after others), which production now
   refuses, so the two agree on what [Wire.add_ints] writes; the
   round-trip property in test_session_state compares them there. *)
module Wire_ints = struct
  exception Malformed

  (* the int at [s.[!pos]], [pos] moved past it *)
  let int s pos =
    let z = ref 0 and shift = ref 0 and fin = ref false in
    while not !fin do
      if !pos >= String.length s || !shift > 60 then raise Malformed;
      let d = Char.code s.[!pos] - 48 in
      incr pos;
      if d < 0 || d > 63 then raise Malformed;
      if d < 32 then begin
        z := !z lor (d lsl !shift);
        fin := true
      end
      else begin
        z := !z lor ((d - 32) lsl !shift);
        shift := !shift + 5
      end
    done;
    (!z lsr 1) lxor -(!z land 1)

  let ints s ~pos =
    let pos = ref pos in
    let n = int s pos in
    if n < 0 || n > String.length s - !pos then raise Malformed;
    let a = Array.make n 0 in
    for k = 0 to n - 1 do
      a.(k) <- int s pos
    done;
    a
end

(* The channel-based journal reader (journal_oracle.ml). *)
module Journal = Journal_oracle
