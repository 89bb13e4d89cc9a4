type color_info = {
  mutable cnt : int;
  mutable dd : int;
      (* the color deadline while eligible; while ineligible, a past or
         current boundary of the color's window grid ([color_deadline]
         derives the live value from it) *)
  mutable eligible : bool;
  mutable last_wrap : int; (* round of the latest wrap event; -1 = none *)
  mutable timestamp : int; (* snapshot of last_wrap at the latest multiple *)
  mutable epochs_ended : int;
  mutable active_epoch : bool; (* a job arrived since the last epoch end *)
  mutable wrap_events : int;
}

type change = Became_eligible | Became_ineligible | Timestamp_bumped

type t = {
  delta : int;
  delay : int array;
  info : color_info array;
  boundary : Rrs_dstruct.Int_heap.t;
      (* packed (dd, color), one entry per eligible color *)
  mutable last_round : int;
  mutable total_epochs_ended : int;
  mutable eligible_drops : int;
  mutable ineligible_drops : int;
  mutable on_change : change -> Types.color -> unit;
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
  (* round 0 is a multiple of every delay bound: every [dd] starts at
     0, and the heap starts empty because no color is eligible yet *)
  let boundary =
    Rrs_dstruct.Int_heap.create
      ~initial_capacity:(Stdlib.max 16 instance.num_colors) ()
  in
  {
    delta = instance.delta;
    delay = instance.delay;
    info;
    boundary;
    last_round = -1;
    total_epochs_ended = 0;
    eligible_drops = 0;
    ineligible_drops = 0;
    on_change = (fun _ _ -> ());
    sink;
    tracing = Rrs_obs.Sink.enabled sink;
  }

let on_change t f = t.on_change <- f

(* An ineligible color has [timestamp = last_wrap]: it lost eligibility
   at a boundary, which synced the timestamp first, and the wrap that
   would move [last_wrap] makes it eligible again.  So its boundaries
   only move [dd] by its delay bound, and [dd] is the first grid point
   after [last_round]: derived on demand instead of kept in the heap. *)
let next_boundary t color dd =
  if dd > t.last_round then dd
  else
    let d = t.delay.(color) in
    dd + (d * (((t.last_round - dd) / d) + 1))

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
    t.on_change Timestamp_bumped color
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
    t.on_change Became_ineligible color
  end;
  ci.dd <- round + t.delay.(color);
  if ci.eligible then
    Rrs_dstruct.Int_heap.add t.boundary (Packed.pack_pair ~value:ci.dd ~color)

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
      if not ci.eligible then begin
        (* this round's boundaries are done, so the derived deadline is
           the one the color's window grid gives after [round] *)
        ci.dd <- next_boundary t color ci.dd;
        ci.eligible <- true;
        Rrs_dstruct.Int_heap.add t.boundary
          (Packed.pack_pair ~value:ci.dd ~color);
        t.on_change Became_eligible color
      end
    end
  end

(* A call that skips rounds processes every boundary it passed over at
   the round it is called for, which moves the window to start there:
   an ineligible color whose next boundary is at most [round] gets
   [dd = round + D].  O(C), once per skip (a policy built mid-session
   starts at round R > 0). *)
let reset_skipped_windows t ~round =
  Array.iteri
    (fun color ci ->
      if (not ci.eligible) && next_boundary t color ci.dd <= round then
        ci.dd <- round + t.delay.(color))
    t.info

let begin_round_body t ~(view : Policy.view) ~in_cache =
  if view.round > t.last_round + 1 then
    reset_skipped_windows t ~round:view.round;
  t.last_round <- view.round;
  (* 1. drop-phase classification uses the pre-transition eligibility,
     so classify before any boundary processing *)
  let dropped = view.dropped in
  for i = 0 to Batch.length dropped - 1 do
    classify_drop t (Batch.color dropped i) (Batch.count dropped i)
  done;
  (* 2. boundary (drop-phase) transitions for every eligible color
     whose batch window ends this round *)
  let continue = ref true in
  while !continue do
    if Rrs_dstruct.Int_heap.is_empty t.boundary then continue := false
    else begin
      let packed = Rrs_dstruct.Int_heap.min t.boundary in
      (* a boundary < view.round was passed over by a skipped round;
         process it now *)
      if Packed.pair_value packed <= view.round then begin
        ignore (Rrs_dstruct.Int_heap.pop_min t.boundary);
        process_boundary t ~round:view.round ~in_cache
          (Packed.pair_color packed)
      end
      else continue := false
    end
  done;
  (* 3. arrival-phase counter updates *)
  let arrivals = view.arrivals in
  for i = 0 to Batch.length arrivals - 1 do
    process_arrival t ~round:view.round (Batch.color arrivals i)
      (Batch.count arrivals i)
  done

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
let color_deadline t color =
  let ci = t.info.(color) in
  if ci.eligible then ci.dd else next_boundary t color ci.dd
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
      a.(k + c) <- color_deadline t color;
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
      ci.wrap_events <- a.(k + (6 * c));
      (* the derived deadline of an ineligible color rests on this *)
      if (not ci.eligible) && ci.timestamp <> ci.last_wrap then
        raise (Wire.Malformed "eligibility: ineligible color off its wrap"))
    t.info;
  (* The boundary heap holds exactly one entry per eligible color, at
     its deadline, so it is rebuilt from the loaded state, not saved. *)
  Rrs_dstruct.Int_heap.clear t.boundary;
  Array.iteri
    (fun color ci ->
      if ci.eligible then
        Rrs_dstruct.Int_heap.add t.boundary
          (Packed.pack_pair ~value:ci.dd ~color))
    t.info
