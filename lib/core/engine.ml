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
    mutable sink : Rrs_obs.Sink.t;
    mutable tracing : bool;
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
    mutable finished : bool;
  }

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
    let round_t0 = if t.tracing then Unix.gettimeofday () else 0. in
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
    | Stream buckets, Some codec when not t.finished ->
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
        (* future arrivals as one flat int array of four columns: the
           rounds (ascending), their batch lengths, then the colors and
           the counts of all batches, round by round in feed order.
           The bucket table's own order depends on its history, and
           equal states must save equal bytes. *)
        let rounds =
          Array.of_list (Hashtbl.fold (fun r _ acc -> r :: acc) buckets [])
        in
        Array.sort Int.compare rounds;
        let nr = Array.length rounds in
        let np = Hashtbl.fold (fun _ batch n -> n + List.length batch) buckets 0 in
        let size = (2 * nr) + (2 * np) in
        let a = Wire.scratch w size in
        let colors = 2 * nr and counts = (2 * nr) + np in
        (* a bucket holds its batch newest first: fill from the back *)
        let rec fill i = function
          | [] -> ()
          | (color, count) :: rest ->
              a.(colors + i) <- color;
              a.(counts + i) <- count;
              fill (i - 1) rest
        in
        let k = ref 0 in
        Array.iteri
          (fun j round ->
            let batch = Hashtbl.find buckets round in
            let len = List.length batch in
            a.(j) <- round;
            a.(nr + j) <- len;
            fill (!k + len - 1) batch;
            k := !k + len)
          rounds;
        int nr;
        Wire.add_ints_prefix w a size;
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
      let buckets = Hashtbl.create 64 in
      let nr = int () in
      let a = Wire.ints r in
      let np = (Array.length a - (2 * nr)) / 2 in
      if nr < 0 || np < 0 || Array.length a <> (2 * nr) + (2 * np) then
        malformed "arrivals length";
      let k = ref 0 in
      for j = 0 to nr - 1 do
        let at = a.(j) and len = a.(nr + j) in
        if at < round || Hashtbl.mem buckets at then malformed "arrival round";
        if len < 0 || !k + len > np then malformed "arrival batch length";
        let batch = ref [] in
        for i = !k to !k + len - 1 do
          let color = a.((2 * nr) + i) and count = a.((2 * nr) + np + i) in
          if color < 0 || color >= num_colors || count <= 0 then
            malformed "arrival batch";
          batch := (color, count) :: !batch
        done;
        k := !k + len;
        Hashtbl.replace buckets at !batch
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
          ~num_colors ~factory:(Some factory) ~source:(Stream buckets) ~policy
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
