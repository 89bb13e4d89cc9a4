(* Rank keys compare lexicographically:
   class (0 = eligible nonidle, 1 = eligible idle, 2 = ineligible),
   then deadline, then delay bound, then color id.

   A key is the four fields packed into one tagged int (Packed), so the
   lexicographic order is plain integer [<] and the flat
   Int_indexed_heap can hold keys without boxing. *)
type key = int

let compare : key -> key -> int = Int.compare

let pack_key = Packed.pack_key
let key_klass = Packed.key_klass
let key_deadline = Packed.key_deadline
let key_delay = Packed.key_delay
let key_color = Packed.key_color

let key_of_color elig pending ~delay color =
  if not (Eligibility.is_eligible elig color) then
    Packed.pack_key ~klass:2 ~deadline:0 ~delay:0 ~color
  else begin
    let d = Pending.front_deadline pending color in
    if d >= 0 then
      Packed.pack_key ~klass:0 ~deadline:d
        ~delay:(Array.unsafe_get delay color)
        ~color
    else
      Packed.pack_key ~klass:1
        ~deadline:(Eligibility.color_deadline elig color)
        ~delay:(Array.unsafe_get delay color)
        ~color
  end

module Index = struct
  module Iheap = Rrs_dstruct.Int_indexed_heap

  type t = {
    elig : Eligibility.t;
    pending : Pending.t;
    delay : int array;
    rank : Iheap.t; (* nonidle eligible colors, by packed EDF rank key *)
    recency : Iheap.t; (* eligible colors, by packed (-ts, id) *)
    counter : Rrs_obs.Metrics.counter option;
    mutable updates : int;
    qbuf : int array; (* scratch for the filtered prefix query *)
  }

  let tick t =
    t.updates <- t.updates + 1;
    match t.counter with Some c -> Rrs_obs.Metrics.inc c 1 | None -> ()

  let remove heap t color =
    if Iheap.mem heap color then begin
      Iheap.remove heap color;
      tick t
    end

  (* [rank] holds exactly the nonidle eligible colors, [recency] exactly
     the eligible ones; keys are recomputed from the live
     Eligibility/Pending state at every refresh, so a rank priority is
     always the klass-0 key [key_of_color] computes.  [Iheap.update]
     inserts absent keys, which makes refresh idempotent. *)
  let refresh_rank t color =
    let deadline = Pending.front_deadline t.pending color in
    if deadline >= 0 && Eligibility.is_eligible t.elig color then begin
      Iheap.update t.rank color
        (Packed.pack_key ~klass:0 ~deadline
           ~delay:(Array.unsafe_get t.delay color)
           ~color);
      tick t
    end
    else remove t.rank t color

  let refresh_recency t color =
    if Eligibility.is_eligible t.elig color then begin
      Iheap.update t.recency color
        (Packed.pack_recency
           ~timestamp:(Eligibility.timestamp t.elig color)
           ~color);
      tick t
    end

  let create ?counter elig pending ~delay =
    let capacity = Stdlib.max (Pending.num_colors pending) 1 in
    (* field-width validation at build time: every key the index will
       ever pack stays inside the Packed layout, so the per-pack guards
       never fire later *)
    if capacity > Packed.max_colors then
      invalid_arg "Ranking.Index: num_colors exceeds the packed color field";
    Array.iter
      (fun d ->
        if d < 0 || d >= Packed.max_delay then
          invalid_arg "Ranking.Index: delay bound exceeds the packed field")
      delay;
    let t =
      {
        elig;
        pending;
        delay;
        rank = Iheap.create ~capacity;
        recency = Iheap.create ~capacity;
        counter;
        updates = 0;
        qbuf = Array.make capacity 0;
      }
    in
    Rrs_prof.span "ranking.index.build" (fun () ->
        List.iter
          (fun color ->
            refresh_rank t color;
            refresh_recency t color)
          (Eligibility.eligible_colors elig));
    Eligibility.on_change elig (fun change color ->
        match change with
        | Eligibility.Became_eligible ->
            refresh_rank t color;
            refresh_recency t color
        | Eligibility.Became_ineligible ->
            remove t.rank t color;
            remove t.recency t color
        | Eligibility.Timestamp_bumped -> refresh_recency t color);
    Pending.on_front_change pending (fun color -> refresh_rank t color);
    t

  (* Policies must not build the index before their first [reconfigure]
     (the state it snapshots would be stale), so they all share this
     memoizing constructor instead of open-coding the ref cell. *)
  let lazily ?counter elig ~delay =
    let cell = ref None in
    fun pending ->
      match !cell with
      | Some t -> t
      | None ->
          let t = create ?counter elig pending ~delay in
          cell := Some t;
          t

  let eligible_count t = Iheap.length t.recency
  let updates t = t.updates

  (* Scratch-buffer queries: the hot path.  Spans use enter/leave with
     an exception match — balanced on raise like Rrs_prof.span, without
     allocating a closure per query. *)

  let ranked_prefix_into t ~k ~out =
    Rrs_prof.enter "ranking.query";
    match Iheap.smallest_into t.rank k ~out with
    | n ->
        Rrs_prof.leave "ranking.query";
        n
    | exception e ->
        Rrs_prof.leave "ranking.query";
        raise e

  let ranked_prefix_excluding_into t ~k ~excluded ~exclude ~out =
    Rrs_prof.enter "ranking.query";
    match
      let m = Iheap.smallest_into t.rank (k + excluded) ~out:t.qbuf in
      let kept = ref 0 in
      let i = ref 0 in
      while !i < m && !kept < k do
        let color = Array.unsafe_get t.qbuf !i in
        if not (exclude color) then begin
          out.(!kept) <- color;
          incr kept
        end;
        incr i
      done;
      !kept
    with
    | n ->
        Rrs_prof.leave "ranking.query";
        n
    | exception e ->
        Rrs_prof.leave "ranking.query";
        raise e

  let recency_prefix_into t ~k ~out =
    Rrs_prof.enter "ranking.query";
    match Iheap.smallest_into t.recency k ~out with
    | n ->
        Rrs_prof.leave "ranking.query";
        n
    | exception e ->
        Rrs_prof.leave "ranking.query";
        raise e

  let rank_key t color = Iheap.priority t.rank color
end
