type instrumented = { policy : Policy.t; eligibility : Eligibility.t }

(* Shared EDF reconfiguration scheme over [distinct_slots] slots.  The
   new cached set is the best [distinct_slots] of (currently cached ∪
   top-ranked nonidle additions); evictions happen only under capacity
   pressure and take the worst-ranked colors, exactly as in the paper.

   A round runs entirely on reusable scratch buffers: prefix queries
   land in [top_buf], the candidate set is collected as packed rank keys
   in [cand] (the key embeds the color, so sorting the ints *is* sorting
   (color, key) pairs by rank), selection is an insertion sort over at
   most distinct_slots + k keys, and the slot assignment goes through
   [Cache_state.assign_array]. *)

let make_scheme ?sink ?registry ~name ~replicated ~distinct_slots
    (instance : Instance.t) =
  let eligibility = Eligibility.create ?sink instance in
  let cache =
    Cache_state.create ~num_colors:instance.num_colors ~distinct_slots
  in
  let in_cache = Cache_state.mem cache in
  let delay = instance.delay in
  let counter =
    Option.map (fun r -> Rrs_obs.Metrics.counter r "ranking_update") registry
  in
  let index = Ranking.Index.lazily ?counter eligibility ~delay in
  let top_buf = Array.make (max 1 distinct_slots) 0 in
  let cand = Array.make (max 1 (2 * distinct_slots)) 0 in
  let desired = Array.make (max 1 distinct_slots) 0 in
  let reconfigure (view : Policy.view) =
    Eligibility.begin_round eligibility ~view ~in_cache;
    let idx = index view.pending in
    let top = Ranking.Index.ranked_prefix_into idx ~k:distinct_slots ~out:top_buf in
    (* candidates: currently cached colors, plus the top-ranked nonidle
       eligible colors not yet cached; all priced by their live packed
       rank key (identical to what key_of_color computes) *)
    let ncand = ref 0 in
    let slots = Cache_state.live_slots cache in
    for s = 0 to Array.length slots - 1 do
      let c = slots.(s) in
      if c <> Types.black then begin
        cand.(!ncand) <-
          (Ranking.key_of_color eligibility view.pending ~delay c :> int);
        incr ncand
      end
    done;
    for i = 0 to top - 1 do
      let c = top_buf.(i) in
      let key = Ranking.Index.rank_key idx c in
      if Ranking.is_nonidle_eligible key && not (Cache_state.mem cache c) then begin
        cand.(!ncand) <- (key :> int);
        incr ncand
      end
    done;
    Policy.sort_int_prefix cand !ncand;
    let keep = min distinct_slots !ncand in
    for i = 0 to keep - 1 do
      desired.(i) <- Packed.key_color cand.(i)
    done;
    Cache_state.assign_array cache desired keep;
    Cache_state.to_assignment cache ~replicated
  in
  {
    policy =
      {
        Policy.name;
        reconfigure;
        codec = Some (Cache_state.codec ~eligibility cache);
      };
    eligibility;
  }

let make ?sink ?registry instance ~n =
  if n < 2 || n mod 2 <> 0 then
    invalid_arg "Edf_policy.make: n must be a positive multiple of 2";
  make_scheme ?sink ?registry ~name:"edf" ~replicated:true
    ~distinct_slots:(n / 2) instance

let policy instance ~n = (make instance ~n).policy

let make_seq ?sink ?registry instance ~n =
  if n < 1 then invalid_arg "Edf_policy.make_seq: n < 1";
  make_scheme ?sink ?registry ~name:"seq-edf" ~replicated:false
    ~distinct_slots:n instance

let seq_policy instance ~n = (make_seq instance ~n).policy
