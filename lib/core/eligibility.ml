type color_info = {
  mutable cnt : int;
  mutable dd : int;
  mutable eligible : bool;
  mutable last_wrap : int; (* round of the latest wrap event; -1 = none *)
  mutable timestamp : int; (* snapshot of last_wrap at the latest multiple *)
  mutable epochs_ended : int;
  mutable active_epoch : bool; (* a job arrived since the last epoch end *)
  mutable wrap_events : int;
}

type change =
  | Became_eligible of Types.color
  | Became_ineligible of Types.color
  | Deadline_moved of Types.color
  | Timestamp_bumped of Types.color
  | Wrapped of Types.color

type t = {
  delta : int;
  delay : int array;
  info : color_info array;
  boundary : Rrs_dstruct.Int_heap.t; (* packed (next multiple, color) *)
  mutable last_round : int;
  mutable total_epochs_ended : int;
  mutable eligible_drops : int;
  mutable ineligible_drops : int;
  (* listeners stored in registration order once, iterated by index
     without allocating (no List.rev per event, no l @ [f] per
     registration) *)
  mutable timestamp_listeners : (int -> int -> unit) array;
  mutable timestamp_listener_count : int;
  mutable change_listeners : (change -> unit) array;
  mutable change_listener_count : int;
  sink : Rrs_obs.Sink.t;
  tracing : bool;
}

let create ?(sink = Rrs_obs.Sink.null) (instance : Instance.t) =
  if instance.num_colors > Packed.max_colors then
    invalid_arg "Eligibility.create: num_colors exceeds the packed color field";
  let info =
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
        })
  in
  let boundary =
    Rrs_dstruct.Int_heap.create
      ~initial_capacity:(Stdlib.max 16 instance.num_colors) ()
  in
  (* round 0 is a multiple of every delay bound *)
  Array.iteri
    (fun color _ ->
      Rrs_dstruct.Int_heap.add boundary (Packed.pack_pair ~value:0 ~color))
    instance.delay;
  {
    delta = instance.delta;
    delay = instance.delay;
    info;
    boundary;
    last_round = -1;
    total_epochs_ended = 0;
    eligible_drops = 0;
    ineligible_drops = 0;
    timestamp_listeners = [||];
    timestamp_listener_count = 0;
    change_listeners = [||];
    change_listener_count = 0;
    sink;
    tracing = Rrs_obs.Sink.enabled sink;
  }

let append listeners count f =
  if count = Array.length listeners then begin
    let bigger = Array.make (Stdlib.max 4 (2 * count)) f in
    Array.blit listeners 0 bigger 0 count;
    bigger
  end
  else begin
    listeners.(count) <- f;
    listeners
  end

let on_change t f =
  let a = append t.change_listeners t.change_listener_count f in
  a.(t.change_listener_count) <- f;
  t.change_listeners <- a;
  t.change_listener_count <- t.change_listener_count + 1

let on_timestamp_update t f =
  let a = append t.timestamp_listeners t.timestamp_listener_count f in
  a.(t.timestamp_listener_count) <- f;
  t.timestamp_listeners <- a;
  t.timestamp_listener_count <- t.timestamp_listener_count + 1

let notify t change =
  for i = 0 to t.change_listener_count - 1 do
    (Array.unsafe_get t.change_listeners i) change
  done

let classify_drop t color count =
  if t.info.(color).eligible then t.eligible_drops <- t.eligible_drops + count
  else t.ineligible_drops <- t.ineligible_drops + count

(* Drop-phase bookkeeping for a color whose batch window ends this round. *)
let process_boundary t ~round ~in_cache color =
  let ci = t.info.(color) in
  (* timestamp: latest wrap event before this multiple.  Wraps of this
     round happen later (arrival phase), so last_wrap is always < round
     here. *)
  if ci.timestamp <> ci.last_wrap then begin
    ci.timestamp <- ci.last_wrap;
    if t.tracing then
      Rrs_obs.Sink.emit t.sink
        (Rrs_obs.Event.Timestamp_update { round; color });
    for i = 0 to t.timestamp_listener_count - 1 do
      (Array.unsafe_get t.timestamp_listeners i) color round
    done;
    notify t (Timestamp_bumped color)
  end;
  if ci.eligible && not (in_cache color) then begin
    ci.eligible <- false;
    ci.cnt <- 0;
    ci.epochs_ended <- ci.epochs_ended + 1;
    ci.active_epoch <- false;
    t.total_epochs_ended <- t.total_epochs_ended + 1;
    if t.tracing then
      Rrs_obs.Sink.emit t.sink
        (Rrs_obs.Event.Epoch_close
           { round; color; epochs_ended = ci.epochs_ended });
    notify t (Became_ineligible color)
  end;
  ci.dd <- round + t.delay.(color);
  Rrs_dstruct.Int_heap.add t.boundary
    (Packed.pack_pair ~value:(round + t.delay.(color)) ~color);
  notify t (Deadline_moved color)

let process_arrival t ~round color count =
  if count > 0 then begin
    let ci = t.info.(color) in
    if not ci.active_epoch then begin
      ci.active_epoch <- true;
      if t.tracing then
        Rrs_obs.Sink.emit t.sink (Rrs_obs.Event.Epoch_open { round; color })
    end;
    ci.cnt <- ci.cnt + count;
    if ci.cnt >= t.delta then begin
      ci.cnt <- ci.cnt mod t.delta;
      ci.last_wrap <- round;
      ci.wrap_events <- ci.wrap_events + 1;
      if t.tracing then begin
        Rrs_obs.Sink.emit t.sink
          (Rrs_obs.Event.Counter_wrap { round; color; wraps = ci.wrap_events });
        (* each wrap banks Δ credit: the charging currency of
           Lemmas 3.3/3.11 (the epoch's reconfigurations are paid for by
           the credits its wraps earned) *)
        Rrs_obs.Sink.emit t.sink
          (Rrs_obs.Event.Credit { round; color; amount = t.delta })
      end;
      notify t (Wrapped color);
      if not ci.eligible then begin
        ci.eligible <- true;
        notify t (Became_eligible color)
      end
    end
  end

(* Plain recursion instead of List.iter closures: begin_round runs once
   per round on the hot path and must not allocate. *)
let rec classify_drops t = function
  | [] -> ()
  | (color, count) :: rest ->
      classify_drop t color count;
      classify_drops t rest

let rec process_arrivals t ~round = function
  | [] -> ()
  | (color, count) :: rest ->
      process_arrival t ~round color count;
      process_arrivals t ~round rest

let begin_round_body t ~(view : Policy.view) ~in_cache =
  t.last_round <- view.round;
  (* 1. drop-phase classification uses the pre-transition eligibility,
     so classify before any boundary processing *)
  classify_drops t view.dropped;
  (* 2. boundary (drop-phase) transitions for every color whose batch
     window ends this round *)
  let continue = ref true in
  while !continue do
    if Rrs_dstruct.Int_heap.is_empty t.boundary then continue := false
    else begin
      let packed = Rrs_dstruct.Int_heap.min t.boundary in
      (* a boundary < view.round can only belong to colors added late;
         process them at the first opportunity *)
      if Packed.pair_value packed <= view.round then begin
        ignore (Rrs_dstruct.Int_heap.pop_min t.boundary);
        process_boundary t ~round:view.round ~in_cache
          (Packed.pair_color packed)
      end
      else continue := false
    end
  done;
  (* 3. arrival-phase counter updates *)
  process_arrivals t ~round:view.round view.arrivals

let begin_round t ~(view : Policy.view) ~in_cache =
  if view.round > t.last_round then begin
    (* the round's whole eligibility transition batch — and therefore
       the Ranking.Index update batch it feeds — profiles as one span.
       enter/leave with an exception match instead of Rrs_prof.span:
       same balance guarantee, no per-round closure. *)
    Rrs_prof.enter "eligibility.begin_round";
    match begin_round_body t ~view ~in_cache with
    | () -> Rrs_prof.leave "eligibility.begin_round"
    | exception e ->
        Rrs_prof.leave "eligibility.begin_round";
        raise e
  end

let is_eligible t color = t.info.(color).eligible
let timestamp t color = t.info.(color).timestamp
let color_deadline t color = t.info.(color).dd
let counter t color = t.info.(color).cnt

let eligible_colors t =
  let out = ref [] in
  for color = Array.length t.info - 1 downto 0 do
    if t.info.(color).eligible then out := color :: !out
  done;
  !out

let epochs_total t =
  Array.fold_left
    (fun acc ci -> acc + ci.epochs_ended + if ci.active_epoch then 1 else 0)
    0 t.info

let epochs_ended t color = t.info.(color).epochs_ended
let wrap_events_total t =
  Array.fold_left (fun acc ci -> acc + ci.wrap_events) 0 t.info

let eligible_drops t = t.eligible_drops
let ineligible_drops t = t.ineligible_drops

(* One flat int array: the four totals, then seven columns of one int
   per color (the two flags share one) — a single {!Wire.add_ints}
   call.  Column order keeps neighbouring ints alike, which the
   variable-length code writes fastest. *)
let save t w =
  let c = Array.length t.info in
  let len = 4 + (7 * c) in
  let a = Wire.scratch w len in
  a.(0) <- t.last_round;
  a.(1) <- t.total_epochs_ended;
  a.(2) <- t.eligible_drops;
  a.(3) <- t.ineligible_drops;
  Array.iteri
    (fun color ci ->
      let k = 4 + color in
      a.(k) <- ci.cnt;
      a.(k + c) <- ci.dd;
      a.(k + (2 * c)) <-
        (if ci.eligible then 1 else 0) lor if ci.active_epoch then 2 else 0;
      a.(k + (3 * c)) <- ci.last_wrap;
      a.(k + (4 * c)) <- ci.timestamp;
      a.(k + (5 * c)) <- ci.epochs_ended;
      a.(k + (6 * c)) <- ci.wrap_events)
    t.info;
  Wire.add_ints_prefix w a len

let load t r =
  let a = Wire.ints r in
  let c = Array.length t.info in
  if Array.length a <> 4 + (7 * c) then
    raise (Wire.Malformed "eligibility: color count differs");
  t.last_round <- a.(0);
  t.total_epochs_ended <- a.(1);
  t.eligible_drops <- a.(2);
  t.ineligible_drops <- a.(3);
  Array.iteri
    (fun color ci ->
      let k = 4 + color in
      let flags = a.(k + (2 * c)) in
      if flags land lnot 3 <> 0 then
        raise (Wire.Malformed "eligibility: bad flags");
      ci.cnt <- a.(k);
      ci.dd <- a.(k + c);
      ci.eligible <- flags land 1 <> 0;
      ci.active_epoch <- flags land 2 <> 0;
      ci.last_wrap <- a.(k + (3 * c));
      ci.timestamp <- a.(k + (4 * c));
      ci.epochs_ended <- a.(k + (5 * c));
      ci.wrap_events <- a.(k + (6 * c)))
    t.info;
  (* The boundary heap holds exactly one entry per color, at the
     color's deadline: [create] seeds (0, c) with [dd = 0], and
     [process_boundary] pops a color's entry and pushes its new [dd].
     So it is rebuilt from the loaded deadlines, not saved. *)
  Rrs_dstruct.Int_heap.clear t.boundary;
  Array.iteri
    (fun color ci ->
      Rrs_dstruct.Int_heap.add t.boundary
        (Packed.pack_pair ~value:ci.dd ~color))
    t.info
