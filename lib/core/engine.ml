type config = {
  n : int;
  mini_rounds : int;
  cost_projection : (Types.color -> Types.color) option;
  sink : Rrs_obs.Sink.t;
  registry : Rrs_obs.Metrics.t option;
  heartbeat : Rrs_obs.Heartbeat.t option;
}

let config ?(mini_rounds = 1) ?cost_projection ?(sink = Rrs_obs.Sink.null)
    ?registry ?heartbeat ~n () =
  if n < 1 then invalid_arg "Engine.config: n < 1";
  if mini_rounds < 1 then invalid_arg "Engine.config: mini_rounds < 1";
  { n; mini_rounds; cost_projection; sink; registry; heartbeat }

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

(* Round-latency and allocation telemetry, active only when the config
   carries a registry: the latency of every round lands in an exact
   µs histogram (clamped at ~65 ms — far beyond any simulated round),
   and the run's GC counter deltas become allocations-per-round gauges.
   Without a registry the engine pays one branch per round and
   allocates nothing for this. *)
let round_latency_max_us = 65535

type telemetry = {
  latency : Rrs_obs.Metrics.histogram;
  reg : Rrs_obs.Metrics.t;
  minor0 : float;
  promoted0 : float;
  major0 : float;
}

let telemetry_start = function
  | None -> None
  | Some reg ->
      let { Gc.promoted_words = promoted0; major_words = major0; _ } =
        Gc.quick_stat ()
      in
      let minor0 = Gc.minor_words () in
      Some
        {
          latency =
            Rrs_obs.Metrics.histogram reg "engine_round_latency_us"
              ~max_value:round_latency_max_us;
          reg;
          minor0;
          promoted0;
          major0;
        }

let telemetry_finish t ~rounds =
  match t with
  | None -> ()
  | Some t ->
      let minor1 = Gc.minor_words () in
      let { Gc.promoted_words = promoted1; major_words = major1; _ } =
        Gc.quick_stat ()
      in
      let per_round v0 v1 = (v1 -. v0) /. float_of_int (max rounds 1) in
      let gauge name v =
        Rrs_obs.Metrics.set (Rrs_obs.Metrics.gauge t.reg name) v
      in
      gauge "alloc_minor_words_per_round" (per_round t.minor0 minor1);
      gauge "alloc_promoted_words_per_round" (per_round t.promoted0 promoted1);
      gauge "alloc_major_words_per_round" (per_round t.major0 major1);
      Rrs_obs.Metrics.inc
        (Rrs_obs.Metrics.counter t.reg "engine_rounds")
        rounds

module Session = struct
  (* Where the next round's arrival batch comes from.  A batch run
     ([Engine.run]) preloads the instance's dense per-round lists and
     pays exactly what the monolithic loop used to pay; a streamed
     session buckets fed arrivals per future round and discards each
     bucket as its round executes, so memory is bounded by the feed
     lookahead, never by the history. *)
  type arrivals_source =
    | Preloaded of (Types.color * int) list array
    | Stream of (int, (Types.color * int) list) Hashtbl.t
        (* per-round buckets, reverse feed order *)

  type t = {
    (* geometry and wiring fixed at creation *)
    mini_rounds : int;
    num_colors : int;
    name : string;
    sink : Rrs_obs.Sink.t;
    tracing : bool;
    project : Types.color -> Types.color;
    factory : Policy.factory option;
    (* parameters a live [reconfigure] may change between rounds *)
    mutable n : int;
    mutable delta : int;
    mutable delay : int array;
    mutable policy : Policy.t;
    (* live state *)
    pending : Pending.t;
    mutable cache : Types.color array;
    source : arrivals_source;
    mutable round : int;  (** next round to execute *)
    mutable reconfig_charges : int;
    mutable reconfig_cost : int;  (** Δ accumulated at charge time *)
    mutable executed : int;
    mutable dropped : int;
    drops_by_color : int array;
    executions_by_color : int array;
    (* telemetry *)
    telemetry : telemetry option;
    mutable heartbeat : Rrs_obs.Heartbeat.t option;
    mutable need_clock : bool;
    mutable finished : bool;
  }

  (* Shared tail of both constructors.  Call order matters for exact
     batch parity: the caller creates pending/cache/arrival storage
     {e before} this function samples the GC baseline
     ([telemetry_start]), mirroring the original monolithic loop. *)
  let make (cfg : config) ~name ~delta ~delay ~num_colors ~factory ~source
      ~policy ~pending ~cache =
    let project =
      match cfg.cost_projection with Some f -> f | None -> Fun.id
    in
    let telemetry = telemetry_start cfg.registry in
    (* An explicit config heartbeat wins; otherwise pick up the ambient
       one (Heartbeat.with_heartbeat), so a sweep installs one heartbeat
       and every engine under it reports without config plumbing. *)
    let heartbeat =
      match cfg.heartbeat with
      | Some _ as h -> h
      | None -> Rrs_obs.Heartbeat.ambient ()
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
      policy;
      pending;
      cache;
      source;
      round = 0;
      reconfig_charges = 0;
      reconfig_cost = 0;
      executed = 0;
      dropped = 0;
      drops_by_color = Array.make num_colors 0;
      executions_by_color = Array.make num_colors 0;
      telemetry;
      heartbeat;
      need_clock = Option.is_some telemetry || Option.is_some heartbeat;
      finished = false;
    }

  let of_instance (cfg : config) (instance : Instance.t) policy =
    Rrs_fault.probe "engine.run";
    Rrs_prof.enter "engine.run";
    let pending = Pending.create ~num_colors:instance.num_colors in
    let cache = Array.make cfg.n Types.black in
    let source = Preloaded (Instance.arrivals_by_round instance) in
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
    let source = Stream (Hashtbl.create 64) in
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
  let pending_of t color = Pending.total t.pending color
  let nonidle_colors t = Pending.nonidle_count t.pending
  let cache t = Array.copy t.cache
  let executed t = t.executed
  let dropped t = t.dropped
  let reconfigurations t = t.reconfig_charges
  let cost t = Cost.make ~reconfig:t.reconfig_cost ~drop:t.dropped
  let finished t = t.finished

  let future_arrivals t =
    match t.source with
    | Preloaded arr ->
        let total = ref 0 in
        for r = t.round to Array.length arr - 1 do
          List.iter (fun (_, count) -> total := !total + count) arr.(r)
        done;
        !total
    | Stream tbl ->
        Hashtbl.fold
          (fun _ batch acc ->
            List.fold_left (fun acc (_, count) -> acc + count) acc batch)
          tbl 0

  (* ---- feeding the stream ---------------------------------------- *)

  type feed_error =
    [ `Color_out_of_range of int * int  (** color, num_colors *)
    | `Count_not_positive of int
    | `Round_in_past of int * int  (** requested, current *)
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
    | `Preloaded -> "session runs a preloaded instance; it takes no feed"
    | `Finished -> "session is finished"

  let feed t ~round ~color ~count : (unit, feed_error) Stdlib.result =
    if t.finished then Error `Finished
    else
      match t.source with
      | Preloaded _ -> Error `Preloaded
      | Stream buckets ->
          if color < 0 || color >= t.num_colors then
            Error (`Color_out_of_range (color, t.num_colors))
          else if count <= 0 then Error (`Count_not_positive count)
          else if round < t.round then Error (`Round_in_past (round, t.round))
          else begin
            let prev =
              match Hashtbl.find_opt buckets round with
              | Some batch -> batch
              | None -> []
            in
            Hashtbl.replace buckets round ((color, count) :: prev);
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

  let take_batch t round =
    match t.source with
    | Preloaded arr -> if round < Array.length arr then arr.(round) else []
    | Stream buckets -> (
        match Hashtbl.find_opt buckets round with
        | None -> []
        | Some rev ->
            Hashtbl.remove buckets round;
            List.rev rev)

  let step t =
    if t.finished then invalid_arg "Engine.Session.step: session is finished";
    Rrs_fault.probe "engine.round";
    Rrs_prof.enter "engine.round";
    let round = t.round in
    let round_t0 = if t.need_clock then Unix.gettimeofday () else 0. in
    (* this round's increments for the heartbeat: plain int reads, no
       allocation on the hot path whether or not one is attached *)
    let hb_charges0 = t.reconfig_charges in
    let hb_executed0 = t.executed in
    let hb_dropped0 = t.dropped in
    let cache = t.cache in
    (* drop phase *)
    Rrs_prof.enter "engine.drop";
    let expired = Pending.expire t.pending ~now:round in
    List.iter
      (fun (color, count) ->
        t.dropped <- t.dropped + count;
        t.drops_by_color.(color) <- t.drops_by_color.(color) + count;
        if t.tracing then
          Rrs_obs.Sink.emit t.sink
            (Rrs_obs.Event.Drop { round; color = t.project color; count }))
      expired;
    Rrs_prof.leave "engine.drop";
    (* arrival phase *)
    Rrs_prof.enter "engine.arrival";
    let batch = take_batch t round in
    List.iter
      (fun (color, count) ->
        Pending.add t.pending color
          ~deadline:(round + t.delay.(color))
          ~count;
        if t.tracing then
          Rrs_obs.Sink.emit t.sink
            (Rrs_obs.Event.Arrival { round; color = t.project color; count }))
      batch;
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
          arrivals = (if mini_round = 0 then batch else []);
          dropped = (if mini_round = 0 then expired else []);
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
    if t.need_clock then begin
      let latency_us =
        int_of_float ((Unix.gettimeofday () -. round_t0) *. 1e6)
      in
      (match t.telemetry with
      | None -> ()
      | Some tl -> Rrs_obs.Metrics.observe tl.latency latency_us);
      match t.heartbeat with
      | None -> ()
      | Some hb ->
          Rrs_obs.Heartbeat.observe_round hb ~round ~delta:t.delta
            ~recolorings:(t.reconfig_charges - hb_charges0)
            ~executed:(t.executed - hb_executed0)
            ~dropped:(t.dropped - hb_dropped0)
            ~latency_us
    end;
    Rrs_prof.leave "engine.round";
    t.round <- round + 1

  let set_heartbeat t heartbeat =
    t.heartbeat <- heartbeat;
    t.need_clock <- Option.is_some t.telemetry || Option.is_some heartbeat

  let finish ?(expect_drained = false) t =
    if t.finished then invalid_arg "Engine.Session.finish: already finished";
    t.finished <- true;
    if expect_drained then assert (Pending.grand_total t.pending = 0);
    telemetry_finish t.telemetry ~rounds:t.round;
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
