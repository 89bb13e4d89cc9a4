type config = {
  n : int;
  mini_rounds : int;
  cost_projection : (Types.color -> Types.color) option;
  sink : Rrs_obs.Sink.t;
}

let config ?(mini_rounds = 1) ?cost_projection ?(sink = Rrs_obs.Sink.null) ~n
    () =
  if n < 1 then invalid_arg "Engine.config: n < 1";
  if mini_rounds < 1 then invalid_arg "Engine.config: mini_rounds < 1";
  { n; mini_rounds; cost_projection; sink }

type result = {
  cost : Cost.t;
  executed : int;
  dropped : int;
  reconfigurations : int;
  drops_by_color : int array;
  executions_by_color : int array;
  rounds_simulated : int;
  final_cache : Types.color array;
}

module Session = struct
  (* Where the next round's arrival batch comes from.  A batch run
     ([Engine.run]) preloads the instance's arrivals as flat per-round
     slices; a streamed session stores fed arrivals per future round
     and discards each batch as its round executes, so memory is
     bounded by the feed lookahead, never by the history. *)
  type arrivals_source =
    | Preloaded of { first : int array; colors : int array; counts : int array }
        (* round r's batch is entries [first.(r), first.(r + 1)) *)
    | Stream of Future_batches.t

  type t = {
    (* geometry and wiring fixed at creation *)
    mini_rounds : int;
    num_colors : int;
    name : string;
    mutable sink : Rrs_obs.Sink.t;
    mutable tracing : bool;
    project : Types.color -> Types.color;
    factory : Policy.factory option;
    (* parameters a live [reconfigure] may change between rounds *)
    mutable n : int;
    mutable delta : int;
    mutable delay : int array;
    mutable round_limit : int;
        (** rounds below it keep every deadline packable *)
    mutable policy : Policy.t;
    (* live state *)
    pending : Pending.t;
    mutable cache : Types.color array;
    source : arrivals_source;
    (* the round's arrival batch and drop list, refilled every round
       and handed to the policy; [no_events] stays empty (the views of
       mini-rounds after the first) *)
    arrivals : Batch.t;
    drops : Batch.t;
    no_events : Batch.t;
    mutable future : int;
        (** jobs in [source] for [round] or later, kept by [feed] and
            the arrival phase: reading it costs no walk of the source *)
    mutable round : int;  (** next round to execute *)
    mutable reconfig_charges : int;
    mutable reconfig_cost : int;  (** Δ accumulated at charge time *)
    mutable executed : int;
    mutable dropped : int;
    drops_by_color : int array;
    executions_by_color : int array;
    mutable finished : bool;
  }

  (* A deadline of a round below the limit, [round + delay], stays
     below [Packed.max_deadline], the rank key's deadline field. *)
  let round_limit delay = Packed.max_deadline - Array.fold_left max 1 delay

  (* Shared tail of both constructors. *)
  let make (cfg : config) ~name ~delta ~delay ~num_colors ~factory ~source
      ~policy ~pending ~cache =
    let project =
      match cfg.cost_projection with Some f -> f | None -> Fun.id
    in
    {
      mini_rounds = cfg.mini_rounds;
      num_colors;
      name;
      sink = cfg.sink;
      tracing = Rrs_obs.Sink.enabled cfg.sink;
      project;
      factory;
      n = cfg.n;
      delta;
      delay;
      round_limit = round_limit delay;
      policy;
      pending;
      cache;
      source;
      arrivals = Batch.create ();
      drops = Batch.create ();
      no_events = Batch.create ();
      future =
        (match source with
        | Preloaded { counts; _ } -> Array.fold_left ( + ) 0 counts
        | Stream future -> Future_batches.jobs future);
      round = 0;
      reconfig_charges = 0;
      reconfig_cost = 0;
      executed = 0;
      dropped = 0;
      drops_by_color = Array.make num_colors 0;
      executions_by_color = Array.make num_colors 0;
      finished = false;
    }

  let of_instance (cfg : config) (instance : Instance.t) policy =
    Rrs_fault.probe "engine.run";
    Rrs_prof.enter "engine.run";
    let pending = Pending.create ~num_colors:instance.num_colors in
    let cache = Array.make cfg.n Types.black in
    (* instance arrivals are sorted by round, then color: the order of
       [Instance.arrivals_by_round] *)
    let arrivals = instance.arrivals in
    let first = Array.make (instance.horizon + 2) 0 in
    Array.iter
      (fun (a : Types.arrival) -> first.(a.round + 1) <- first.(a.round + 1) + 1)
      arrivals;
    for r = 1 to instance.horizon + 1 do
      first.(r) <- first.(r) + first.(r - 1)
    done;
    let source =
      Preloaded
        {
          first;
          colors = Array.map (fun (a : Types.arrival) -> a.color) arrivals;
          counts = Array.map (fun (a : Types.arrival) -> a.count) arrivals;
        }
    in
    make cfg ~name:instance.name ~delta:instance.delta ~delay:instance.delay
      ~num_colors:instance.num_colors ~factory:None ~source ~policy ~pending
      ~cache

  let create ?(name = "session") (cfg : config) ~delta ~delay factory =
    if Array.length delay > Packed.max_colors then
      invalid_arg
        (Printf.sprintf
           "Engine.Session.create: %d colors exceed Packed.max_colors (%d)"
           (Array.length delay) Packed.max_colors);
    (* an empty-arrival instance carries the static parameters online
       policies read (delta, delay, num_colors) — the stream has no
       pre-built workload value by design *)
    let params = Instance.create ~name ~delta ~delay:(Array.copy delay) ~arrivals:[] () in
    let policy = factory params ~n:cfg.n in
    Rrs_fault.probe "engine.run";
    Rrs_prof.enter "engine.run";
    let pending = Pending.create ~num_colors:params.num_colors in
    let cache = Array.make cfg.n Types.black in
    let source = Stream (Future_batches.create ()) in
    make cfg ~name ~delta:params.delta ~delay:params.delay
      ~num_colors:params.num_colors ~factory:(Some factory) ~source ~policy
      ~pending ~cache

  (* ---- observers ------------------------------------------------- *)

  let round t = t.round
  let n t = t.n
  let delta t = t.delta
  let delay t = Array.copy t.delay
  let num_colors t = t.num_colors
  let pending_jobs t = Pending.grand_total t.pending
  let nonidle_colors t = Pending.nonidle_count t.pending
  let cache t = Array.copy t.cache
  let executed t = t.executed
  let dropped t = t.dropped
  let reconfigurations t = t.reconfig_charges
  let cost t = Cost.make ~reconfig:t.reconfig_cost ~drop:t.dropped
  let finished t = t.finished

  let future_arrivals t = t.future

  (* ---- feeding the stream ---------------------------------------- *)

  type feed_error =
    [ `Color_out_of_range of int * int  (** color, num_colors *)
    | `Count_not_positive of int
    | `Round_in_past of int * int  (** requested, current *)
    | `Deadline_beyond_limit of int * int * int  (** round, color, deadline *)
    | `Preloaded
    | `Finished ]

  let string_of_feed_error : feed_error -> string = function
    | `Color_out_of_range (color, num_colors) ->
        Printf.sprintf "color %d out of range (universe has %d colors, max %d)"
          color num_colors Packed.max_colors
    | `Count_not_positive count ->
        Printf.sprintf "count %d is not positive" count
    | `Round_in_past (requested, current) ->
        Printf.sprintf "round %d already executed (current round is %d)"
          requested current
    | `Deadline_beyond_limit (round, color, deadline) ->
        Printf.sprintf
          "round %d: the deadline %d of color %d would reach the deadline \
           limit %d"
          round deadline color Packed.max_deadline
    | `Preloaded -> "session runs a preloaded instance; it takes no feed"
    | `Finished -> "session is finished"

  let feed t ~round ~color ~count : (unit, feed_error) Stdlib.result =
    if t.finished then Error `Finished
    else
      match t.source with
      | Preloaded _ -> Error `Preloaded
      | Stream future ->
          if color < 0 || color >= t.num_colors then
            Error (`Color_out_of_range (color, t.num_colors))
          else if count <= 0 then Error (`Count_not_positive count)
          else if round < t.round then Error (`Round_in_past (round, t.round))
          else if round + t.delay.(color) >= Packed.max_deadline then
            Error
              (`Deadline_beyond_limit (round, color, round + t.delay.(color)))
          else begin
            Future_batches.add future ~round ~color ~count;
            t.future <- t.future + count;
            Ok ()
          end

  (* ---- reconfiguration between rounds ----------------------------- *)

  type reconfigure_error =
    [ `Bad_delta of int
    | `Bad_n of int
    | `Bad_delay of int * int  (** color, requested delay *)
    | `Unknown_color of int
    | `Delay_reduced_while_pending of int
    | `No_factory
    | `Policy_rejected of string
    | `Finished ]

  let string_of_reconfigure_error : reconfigure_error -> string = function
    | `Bad_delta d -> Printf.sprintf "delta %d must be >= 1" d
    | `Bad_n n -> Printf.sprintf "n %d must be >= 1" n
    | `Bad_delay (color, d) ->
        Printf.sprintf "delay %d for color %d out of range [1, %d)" d color
          Packed.max_delay
    | `Unknown_color color -> Printf.sprintf "unknown color %d" color
    | `Delay_reduced_while_pending color ->
        Printf.sprintf
          "cannot reduce the delay bound of color %d while it has pending jobs"
          color
    | `No_factory ->
        "session was built from an instantiated policy; capacity and \
         delay-bound reconfiguration need a policy factory"
    | `Policy_rejected msg -> Printf.sprintf "policy rejected parameters: %s" msg
    | `Finished -> "session is finished"

  let reconfigure t ?delta ?n ?(delay = []) () :
      (unit, reconfigure_error) Stdlib.result =
    if t.finished then Error `Finished
    else
      let bad =
        match delta with
        | Some d when d < 1 -> Some (`Bad_delta d)
        | _ -> (
            match n with
            | Some v when v < 1 -> Some (`Bad_n v)
            | _ ->
                List.fold_left
                  (fun acc (color, d) ->
                    match acc with
                    | Some _ -> acc
                    | None ->
                        if color < 0 || color >= t.num_colors then
                          Some (`Unknown_color color)
                        else if d < 1 || d >= Packed.max_delay then
                          Some (`Bad_delay (color, d))
                        else if
                          (* a shrunk bound would let a later arrival's
                             deadline undercut this color's pending back
                             bucket, which Pending.add rejects deep in the
                             hot path — surface it as a typed error here *)
                          d < t.delay.(color) && Pending.total t.pending color > 0
                        then Some (`Delay_reduced_while_pending color)
                        else None)
                  None delay)
      in
      match bad with
      | Some e -> Error e
      | None -> (
          let new_delta = Option.value ~default:t.delta delta in
          let new_n = Option.value ~default:t.n n in
          let new_delay =
            if delay = [] then t.delay
            else begin
              let d = Array.copy t.delay in
              List.iter (fun (color, v) -> d.(color) <- v) delay;
              d
            end
          in
          let changed =
            new_delta <> t.delta || new_n <> t.n || new_delay != t.delay
          in
          if not changed then Ok ()
          else
            (* any parameter change re-instantiates the policy: Δ feeds
               eligibility credits, the delay bounds feed the ranking
               keys, and n fixes the component quotas — a fresh policy
               at the new operating point is the reconfiguration
               semantics, and replaying the same op sequence re-creates
               it identically (doc/SERVICE.md, "Restart semantics") *)
            match t.factory with
            | None -> Error `No_factory
            | Some factory -> (
                let params =
                  Instance.create ~name:t.name ~delta:new_delta
                    ~delay:(Array.copy new_delay) ~arrivals:[] ()
                in
                match factory params ~n:new_n with
                | exception Invalid_argument msg -> Error (`Policy_rejected msg)
                | policy ->
                    t.delta <- new_delta;
                    t.delay <- new_delay;
                    t.round_limit <- round_limit new_delay;
                    if new_n <> t.n then begin
                      let fresh = Array.make new_n Types.black in
                      Array.blit t.cache 0 fresh 0 (min t.n new_n);
                      t.cache <- fresh;
                      t.n <- new_n
                    end;
                    t.policy <- policy;
                    Ok ()))

  (* ---- the round stepper ------------------------------------------ *)

  let check_assignment t assignment =
    if Array.length assignment <> t.n then
      invalid_arg "Engine: policy returned an assignment of the wrong length";
    for i = 0 to Array.length assignment - 1 do
      let c = assignment.(i) in
      if c <> Types.black && (c < 0 || c >= t.num_colors) then
        invalid_arg "Engine: policy returned an out-of-range color"
    done

  (* Refill [t.arrivals] with the round's batch. *)
  let take_batch t round =
    match t.source with
    | Preloaded { first; colors; counts } ->
        Batch.clear t.arrivals;
        if round + 1 < Array.length first then
          for i = first.(round) to first.(round + 1) - 1 do
            Batch.push t.arrivals colors.(i) counts.(i)
          done
    | Stream future -> Future_batches.take future ~round t.arrivals

  type step_error = [ `Round_limit of int * int | `Finished ]

  let string_of_step_error : step_error -> string = function
    | `Round_limit (round, last) ->
        Printf.sprintf
          "round %d is past the last round a session can execute, %d (a \
           round plus the largest delay bound must stay below the deadline \
           limit %d)"
          round last Packed.max_deadline
    | `Finished -> "session is finished"

  let check_step t ~rounds =
    if t.finished then Error `Finished
    else if rounds > 0 && rounds > t.round_limit - t.round then
      Error (`Round_limit (max t.round t.round_limit, t.round_limit - 1))
    else Ok ()

  let step t =
    (match check_step t ~rounds:1 with
    | Ok () -> ()
    | Error e -> invalid_arg ("Engine.Session.step: " ^ string_of_step_error e));
    Rrs_fault.probe "engine.round";
    Rrs_prof.enter "engine.round";
    let round = t.round in
    let round_t0 = if t.tracing then Unix.gettimeofday () else 0. in
    let cache = t.cache in
    (* drop phase *)
    Rrs_prof.enter "engine.drop";
    let expired = t.drops in
    Pending.expire t.pending ~now:round expired;
    for i = 0 to Batch.length expired - 1 do
      let color = Batch.color expired i and count = Batch.count expired i in
      t.dropped <- t.dropped + count;
      t.drops_by_color.(color) <- t.drops_by_color.(color) + count;
      if t.tracing then
        Rrs_obs.Sink.emit t.sink
          (Rrs_obs.Event.Drop { round; color = t.project color; count })
    done;
    Rrs_prof.leave "engine.drop";
    (* arrival phase *)
    Rrs_prof.enter "engine.arrival";
    take_batch t round;
    let batch = t.arrivals in
    for i = 0 to Batch.length batch - 1 do
      let color = Batch.color batch i and count = Batch.count batch i in
      t.future <- t.future - count;
      Pending.add t.pending color ~deadline:(round + t.delay.(color)) ~count;
      if t.tracing then
        Rrs_obs.Sink.emit t.sink
          (Rrs_obs.Event.Arrival { round; color = t.project color; count })
    done;
    Rrs_prof.leave "engine.arrival";
    (* reconfiguration + execution, [mini_rounds] times *)
    for mini_round = 0 to t.mini_rounds - 1 do
      if t.tracing then
        Rrs_obs.Sink.emit t.sink (Rrs_obs.Event.Mini_round { round; mini_round });
      Rrs_prof.enter "engine.reconfigure";
      let view =
        {
          Policy.round;
          mini_round;
          arrivals = (if mini_round = 0 then batch else t.no_events);
          dropped = (if mini_round = 0 then expired else t.no_events);
          cache;
          pending = t.pending;
        }
      in
      let assignment = t.policy.Policy.reconfigure view in
      check_assignment t assignment;
      for resource = 0 to t.n - 1 do
        let old_color = cache.(resource) in
        let new_color = assignment.(resource) in
        if old_color <> new_color then begin
          if t.project old_color <> t.project new_color then begin
            t.reconfig_charges <- t.reconfig_charges + 1;
            t.reconfig_cost <- t.reconfig_cost + t.delta;
            if t.tracing then
              Rrs_obs.Sink.emit t.sink
                (Rrs_obs.Event.Reconfigure
                   {
                     round;
                     mini_round;
                     resource;
                     from_color = t.project old_color;
                     to_color = t.project new_color;
                   })
          end;
          cache.(resource) <- new_color
        end
      done;
      Rrs_prof.leave "engine.reconfigure";
      (* execution phase: one pending job per configured resource *)
      Rrs_prof.enter "engine.execute";
      for resource = 0 to t.n - 1 do
        let color = cache.(resource) in
        if color <> Types.black && Pending.execute t.pending color then begin
          t.executed <- t.executed + 1;
          t.executions_by_color.(color) <- t.executions_by_color.(color) + 1;
          if t.tracing then
            Rrs_obs.Sink.emit t.sink
              (Rrs_obs.Event.Execute
                 { round; mini_round; resource; color = t.project color })
        end
      done;
      Rrs_prof.leave "engine.execute"
    done;
    Rrs_prof.leave "engine.round";
    t.round <- round + 1;
    (* emitted once the round is committed, so a consumer that raises
       here cannot make the round execute twice *)
    if t.tracing then
      Rrs_obs.Sink.emit t.sink
        (Rrs_obs.Event.Round_end
           {
             round;
             delta = t.delta;
             latency_us =
               int_of_float ((Unix.gettimeofday () -. round_t0) *. 1e6);
           })

  (* ---- checkpointing ---------------------------------------------- *)

  let state_version = 1

  let checkpointable t =
    (match t.source with Stream _ -> true | Preloaded _ -> false)
    && Option.is_some t.policy.Policy.codec
    && not t.finished

  let save t w =
    match (t.source, t.policy.Policy.codec) with
    | Stream future, Some codec when not t.finished ->
        let int = Wire.add_int w in
        int state_version;
        int t.round;
        int t.n;
        int t.delta;
        Wire.add_ints w t.delay;
        int t.reconfig_charges;
        int t.reconfig_cost;
        int t.executed;
        int t.dropped;
        Wire.add_ints w t.drops_by_color;
        Wire.add_ints w t.executions_by_color;
        Wire.add_ints w t.cache;
        Pending.save t.pending w;
        Future_batches.save future w;
        codec.Policy.save w
    | _ -> invalid_arg "Engine.Session.save: session is not checkpointable"

  let load ?(name = "session") (cfg : config) factory r =
    let malformed what = raise (Wire.Malformed ("session state: " ^ what)) in
    match
      let int () = Wire.int r in
      if int () <> state_version then malformed "unknown version";
      let round = int () in
      let n = int () in
      let delta = int () in
      let delay = Wire.ints r in
      let num_colors = Array.length delay in
      if round < 0 || n < 1 then malformed "round or n out of range";
      if num_colors > Packed.max_colors then malformed "too many colors";
      let params =
        Instance.create ~name ~delta ~delay:(Array.copy delay) ~arrivals:[] ()
      in
      let policy = factory params ~n in
      let charges = int () in
      let reconfig_cost = int () in
      let executed = int () in
      let dropped = int () in
      let drops_by_color = Wire.ints r in
      let executions_by_color = Wire.ints r in
      let cache = Wire.ints r in
      if
        Array.length drops_by_color <> num_colors
        || Array.length executions_by_color <> num_colors
        || Array.length cache <> n
        || Array.exists (fun c -> c <> Types.black && (c < 0 || c >= num_colors)) cache
      then malformed "accounting or cache shape";
      let pending = Pending.create ~num_colors in
      Pending.load pending r;
      let future = Future_batches.create () in
      let nr = int () in
      let a = Wire.ints r in
      let np = (Array.length a - (2 * nr)) / 2 in
      if nr < 0 || np < 0 || Array.length a <> (2 * nr) + (2 * np) then
        malformed "arrivals length";
      let k = ref 0 in
      for j = 0 to nr - 1 do
        let at = a.(j) and len = a.(nr + j) in
        if at < round || Future_batches.mem future at then
          malformed "arrival round";
        if len < 1 || !k + len > np then malformed "arrival batch length";
        for i = !k to !k + len - 1 do
          let color = a.((2 * nr) + i) and count = a.((2 * nr) + np + i) in
          if color < 0 || color >= num_colors || count <= 0 then
            malformed "arrival batch";
          Future_batches.add future ~round:at ~color ~count
        done;
        k := !k + len
      done;
      if !k <> np then malformed "arrival batch lengths";
      (match policy.Policy.codec with
      | Some codec -> codec.Policy.load r
      | None -> malformed "the policy is not checkpointable");
      if not (Wire.at_end r) then malformed "trailing bytes";
      Rrs_fault.probe "engine.run";
      Rrs_prof.enter "engine.run";
      let t =
        make { cfg with n } ~name ~delta:params.delta ~delay:params.delay
          ~num_colors ~factory:(Some factory) ~source:(Stream future) ~policy
          ~pending ~cache
      in
      t.round <- round;
      t.reconfig_charges <- charges;
      t.reconfig_cost <- reconfig_cost;
      t.executed <- executed;
      t.dropped <- dropped;
      Array.blit drops_by_color 0 t.drops_by_color 0 num_colors;
      Array.blit executions_by_color 0 t.executions_by_color 0 num_colors;
      t
    with
    | t -> Ok t
    | exception (Wire.Malformed msg | Invalid_argument msg) -> Error msg

  let set_sink t sink =
    t.sink <- sink;
    t.tracing <- Rrs_obs.Sink.enabled sink

  let finish ?(expect_drained = false) t =
    if t.finished then invalid_arg "Engine.Session.finish: already finished";
    t.finished <- true;
    if expect_drained then assert (Pending.grand_total t.pending = 0);
    Rrs_prof.leave "engine.run";
    {
      cost = Cost.make ~reconfig:t.reconfig_cost ~drop:t.dropped;
      executed = t.executed;
      dropped = t.dropped;
      reconfigurations = t.reconfig_charges;
      drops_by_color = t.drops_by_color;
      executions_by_color = t.executions_by_color;
      rounds_simulated = t.round;
      final_cache = Array.copy t.cache;
    }
end

(* The batch entry points are thin drivers over a preloaded session:
   every round of the instance (through the horizon, whose final drop
   phase expires the last pending jobs) is one [Session.step]. *)
let run_policy cfg (instance : Instance.t) (policy : Policy.t) =
  let session = Session.of_instance cfg instance policy in
  for _ = 0 to instance.horizon do
    Session.step session
  done;
  Session.finish ~expect_drained:true session

let run cfg instance factory = run_policy cfg instance (factory instance ~n:cfg.n)
