module Event = Rrs_obs.Event
module Sink = Rrs_obs.Sink

type policy = Fail_fast | Record | Off

type violation = { round : int; invariant : string; detail : string }

exception Invariant_violation of violation

type t = {
  policy : policy;
  delta : int;
  lemma_bounds : bool;
  mutable last_round : int;
  mutable epochs_opened : int;
  mutable reconfig_charges : int;
  mutable ineligible_drops : int;
  (* lemma bounds only apply once the run proves itself instrumented by
     emitting an eligibility-family event; plain policies trace drops
     the lemmas do not bound *)
  mutable instrumented : bool;
  eligible : (int, bool) Hashtbl.t; (* color -> eligibility, replayed *)
  cache : (int, int) Hashtbl.t; (* resource -> projected color *)
  mutable events_seen : int;
  mutable violations : violation list; (* reversed *)
}

let create ?(policy = Record) ?(lemma_bounds = true) ~delta () =
  if delta < 1 then invalid_arg "Watchdog.create: delta < 1";
  {
    policy;
    delta;
    lemma_bounds;
    last_round = -1;
    epochs_opened = 0;
    reconfig_charges = 0;
    ineligible_drops = 0;
    instrumented = false;
    eligible = Hashtbl.create 16;
    cache = Hashtbl.create 16;
    events_seen = 0;
    violations = [];
  }

let flag t ~round ~invariant detail =
  let v = { round; invariant; detail } in
  match t.policy with
  | Fail_fast -> raise (Invariant_violation v)
  | Record -> t.violations <- v :: t.violations
  | Off -> ()

let is_eligible t color =
  Option.value ~default:false (Hashtbl.find_opt t.eligible color)

let cached t resource =
  Option.value ~default:Rrs_core.Types.black (Hashtbl.find_opt t.cache resource)

(* The lemma budgets are amortized over the whole run: a prefix can
   legitimately run ahead of 4·numEpochs while an epoch's service is in
   flight (observed on the unbatched family: 73 charges against 18 open
   epochs, converging under the bound by the end).  They are therefore
   applied by [finish], not per event. *)
let check_lemma_3_3 t ~round =
  if t.lemma_bounds && t.instrumented
     && t.reconfig_charges > 4 * t.epochs_opened
  then
    flag t ~round ~invariant:"lemma_3_3"
      (Printf.sprintf "%d reconfiguration charges > 4 * %d epochs"
         t.reconfig_charges t.epochs_opened)

let check_lemma_3_4 t ~round =
  if t.lemma_bounds && t.instrumented
     && t.ineligible_drops > t.delta * t.epochs_opened
  then
    flag t ~round ~invariant:"lemma_3_4"
      (Printf.sprintf "%d ineligible drops > %d * %d epochs"
         t.ineligible_drops t.delta t.epochs_opened)

let finish t =
  let round = max 0 t.last_round in
  check_lemma_3_3 t ~round;
  check_lemma_3_4 t ~round

let observe t event =
  t.events_seen <- t.events_seen + 1;
  let round = Event.round event in
  if round < t.last_round then
    flag t ~round ~invariant:"round_monotonic"
      (Printf.sprintf "round %d after round %d" round t.last_round)
  else t.last_round <- round;
  match event with
  | Event.Drop { color; count; _ } ->
      if count < 0 then
        flag t ~round ~invariant:"nonneg_count"
          (Printf.sprintf "drop of %d jobs of color %d" count color);
      (* engine classification is pre-transition: this round's
         eligibility events have not arrived yet, so the replayed state
         is exactly the classifying state *)
      if t.instrumented && not (is_eligible t color) then
        t.ineligible_drops <- t.ineligible_drops + count
  | Event.Arrival { color; count; _ } ->
      if count < 0 then
        flag t ~round ~invariant:"nonneg_count"
          (Printf.sprintf "arrival of %d jobs of color %d" count color)
  | Event.Reconfigure { resource; from_color; to_color; _ } ->
      if from_color = to_color then
        flag t ~round ~invariant:"self_reconfigure"
          (Printf.sprintf "resource %d recolored %d -> %d" resource from_color
             to_color);
      let tracked = cached t resource in
      if tracked <> from_color then
        flag t ~round ~invariant:"cache_consistency"
          (Printf.sprintf "resource %d held %d, reconfigured from %d" resource
             tracked from_color);
      Hashtbl.replace t.cache resource to_color;
      t.reconfig_charges <- t.reconfig_charges + 1
  | Event.Execute { resource; color; _ } ->
      if color = Rrs_core.Types.black then
        flag t ~round ~invariant:"execute_color"
          (Printf.sprintf "resource %d executed while unconfigured" resource);
      let tracked = cached t resource in
      if tracked <> color then
        flag t ~round ~invariant:"execute_color"
          (Printf.sprintf "resource %d held %d, executed color %d" resource
             tracked color)
  | Event.Epoch_open { color; _ } ->
      t.instrumented <- true;
      if is_eligible t color then
        flag t ~round ~invariant:"epoch_lifecycle"
          (Printf.sprintf "epoch of color %d opened while eligible" color);
      t.epochs_opened <- t.epochs_opened + 1
  | Event.Epoch_close { color; epochs_ended; _ } ->
      t.instrumented <- true;
      if not (is_eligible t color) then
        flag t ~round ~invariant:"epoch_lifecycle"
          (Printf.sprintf "epoch of color %d closed while ineligible" color);
      if epochs_ended < 1 then
        flag t ~round ~invariant:"epoch_lifecycle"
          (Printf.sprintf "color %d closed its epoch #%d" color epochs_ended);
      Hashtbl.replace t.eligible color false
  | Event.Counter_wrap { color; wraps; _ } ->
      t.instrumented <- true;
      if wraps < 1 then
        flag t ~round ~invariant:"epoch_lifecycle"
          (Printf.sprintf "color %d recorded wrap #%d" color wraps);
      Hashtbl.replace t.eligible color true
  | Event.Credit { color; amount; _ } ->
      t.instrumented <- true;
      if amount <> t.delta then
        flag t ~round ~invariant:"credit_amount"
          (Printf.sprintf "color %d credited %d, expected delta = %d" color
             amount t.delta)
  | Event.Timestamp_update _ -> t.instrumented <- true
  | Event.Mini_round _ | Event.Round_end _ | Event.Super_epoch _ -> ()

let attach t inner =
  match t.policy with
  | Off -> inner
  | Fail_fast | Record ->
      Sink.callback (fun event ->
          observe t event;
          Sink.emit inner event)

let events_seen t = t.events_seen
let violations t = List.rev t.violations
let ok t = t.violations = []

let pp_violation fmt v =
  Format.fprintf fmt "round %d: %s: %s" v.round v.invariant v.detail
