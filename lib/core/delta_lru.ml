type instrumented = { policy : Policy.t; eligibility : Eligibility.t }

let make ?sink ?registry (instance : Instance.t) ~n =
  if n < 2 || n mod 2 <> 0 then
    invalid_arg "Delta_lru.make: n must be a positive multiple of 2";
  let eligibility = Eligibility.create ?sink instance in
  let cache =
    Cache_state.create ~num_colors:instance.num_colors ~distinct_slots:(n / 2)
  in
  let in_cache = Cache_state.mem cache in
  let counter =
    Option.map (fun r -> Rrs_obs.Metrics.counter r "ranking_update") registry
  in
  let index =
    Ranking.Index.lazily ?counter eligibility ~delay:instance.delay
  in
  let k = n / 2 in
  (* reusable scratch: the desired-set buffer the recency prefix lands
     in, so a round allocates no list *)
  let buf = Array.make (max 1 k) 0 in
  (* The n/2 eligible colors with the freshest timestamps: a prefix
     query on the delta-maintained recency index, written into scratch. *)
  let reconfigure (view : Policy.view) =
    Eligibility.begin_round eligibility ~view ~in_cache;
    let len =
      Ranking.Index.recency_prefix_into (index view.pending) ~k ~out:buf
    in
    Cache_state.assign_array cache buf len;
    Cache_state.to_assignment cache ~replicated:true
  in
  {
    policy =
      {
        Policy.name = "dlru";
        reconfigure;
        codec = Some (Cache_state.codec ~eligibility cache);
      };
    eligibility;
  }

let policy instance ~n = (make instance ~n).policy
