type instrumented = { policy : Policy.t; eligibility : Eligibility.t }

let lru_slots ~n = n / 4
let distinct_capacity ~n = n / 2

let make_tuned ?sink ?registry ~lru_slots:quota ~distinct_slots ~replicated
    (instance : Instance.t) ~n =
  let expected_n = if replicated then 2 * distinct_slots else distinct_slots in
  if n <> expected_n then
    invalid_arg
      (Printf.sprintf
         "Lru_edf.make_tuned: n = %d inconsistent with distinct_slots = %d \
          (replicated = %b)"
         n distinct_slots replicated);
  if quota < 0 || quota > distinct_slots then
    invalid_arg "Lru_edf.make_tuned: lru_slots out of range";
  let eligibility = Eligibility.create ?sink instance in
  let cache =
    Cache_state.create ~num_colors:instance.num_colors ~distinct_slots
  in
  let in_cache = Cache_state.mem cache in
  let delay = instance.delay in
  let edf_quota = distinct_slots - quota in
  let counter =
    Option.map (fun r -> Rrs_obs.Metrics.counter r "ranking_update") registry
  in
  let index = Ranking.Index.lazily ?counter eligibility ~delay in
  (* Reusable per-policy scratch: the whole round runs on flat buffers,
     allocating only the engine-facing assignment array.
     - [lru_buf]/[edf_buf]: prefix query results;
     - [is_lru]: flag array replacing the per-round Hashtbl;
     - [cand]: candidate set as packed rank keys (the key embeds the
       color, so sorting the ints is sorting (color, key) by rank);
     - [desired]: the final desired set for assign_array. *)
  let lru_buf = Array.make (max 1 quota) 0 in
  let edf_buf = Array.make (max 1 edf_quota) 0 in
  let is_lru = Array.make (max 1 instance.num_colors) false in
  let cand = Array.make (max 1 (distinct_slots + edf_quota)) 0 in
  let desired = Array.make (max 1 distinct_slots) 0 in
  let exclude c = Array.unsafe_get is_lru c in
  let reconfigure (view : Policy.view) =
    Eligibility.begin_round eligibility ~view ~in_cache;
    (* ΔLRU component: the [quota] eligible colors with the freshest
       timestamps are unconditionally cached *)
    let idx = index view.pending in
    let lru_len =
      Ranking.Index.recency_prefix_into idx ~k:quota ~out:lru_buf
    in
    for i = 0 to lru_len - 1 do
      is_lru.(lru_buf.(i)) <- true
    done;
    (* EDF component: the top [edf_quota] nonidle eligible non-LRU
       colors (the index ranks only nonidle eligible ones) that are not
       cached come in ([excluded] upper-bounds the LRU colors the rank
       prefix may contain) *)
    let edf_len =
      Ranking.Index.ranked_prefix_excluding_into idx ~k:edf_quota
        ~excluded:lru_len ~exclude ~out:edf_buf
    in
    (* candidate keep-set: currently cached non-LRU colors plus the
       nonidle uncached EDF additions, priced by their live rank key *)
    let ncand = ref 0 in
    let slots = Cache_state.live_slots cache in
    for s = 0 to Array.length slots - 1 do
      let c = slots.(s) in
      if c <> Types.black && not is_lru.(c) then begin
        cand.(!ncand) <-
          (Ranking.key_of_color eligibility view.pending ~delay c :> int);
        incr ncand
      end
    done;
    for i = 0 to edf_len - 1 do
      let c = edf_buf.(i) in
      if not (Cache_state.mem cache c) then begin
        cand.(!ncand) <- (Ranking.Index.rank_key idx c :> int);
        incr ncand
      end
    done;
    (* capacity pressure evicts the worst-ranked non-LRU colors *)
    Policy.sort_int_prefix cand !ncand;
    let room = distinct_slots - lru_len in
    let keep = min room !ncand in
    for i = 0 to lru_len - 1 do
      desired.(i) <- lru_buf.(i)
    done;
    for i = 0 to keep - 1 do
      desired.(lru_len + i) <- Packed.key_color cand.(i)
    done;
    for i = 0 to lru_len - 1 do
      is_lru.(lru_buf.(i)) <- false
    done;
    Cache_state.assign_array cache desired (lru_len + keep);
    Cache_state.to_assignment cache ~replicated
  in
  let name =
    if quota = lru_slots ~n:(2 * distinct_slots) && replicated then "dlru-edf"
    else Printf.sprintf "dlru-edf[lru=%d/%d%s]" quota distinct_slots
           (if replicated then "" else ",norepl")
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

let make ?sink ?registry (instance : Instance.t) ~n =
  if n < 4 || n mod 4 <> 0 then
    invalid_arg "Lru_edf.make: n must be a positive multiple of 4";
  make_tuned ?sink ?registry ~lru_slots:(lru_slots ~n)
    ~distinct_slots:(distinct_capacity ~n)
    ~replicated:true instance ~n

let policy instance ~n = (make instance ~n).policy
