type violation = { round : Types.round; message : string }

type report = {
  ok : bool;
  violations : violation list;
  recomputed_cost : Cost.t;
  executed : int;
  dropped : int;
}

let check ?(strict_drops = true) (instance : Instance.t) (sched : Schedule.t) =
  let violations = ref [] in
  let flag round fmt =
    Format.kasprintf
      (fun message -> violations := { round; message } :: !violations)
      fmt
  in
  let pending = Pending.create ~num_colors:instance.num_colors in
  let cache = Array.make sched.n Types.black in
  let arrivals = Instance.arrivals_by_round instance in
  let expired_buf = Batch.create () in
  let executed = ref 0 in
  let dropped = ref 0 in
  let reconfigs = ref 0 in
  (* group events by round once *)
  let by_round = Array.make (instance.horizon + 1) [] in
  Array.iter
    (fun (round, e) ->
      if round < 0 || round > instance.horizon then
        flag round "event outside the instance horizon"
      else by_round.(round) <- e :: by_round.(round))
    sched.events;
  Array.iteri (fun r evs -> by_round.(r) <- List.rev evs) by_round;
  for round = 0 to instance.horizon do
    (* drop phase: expire under the instance's own deadlines *)
    Pending.expire pending ~now:round expired_buf;
    let expired = Batch.to_list expired_buf in
    List.iter (fun (_, count) -> dropped := !dropped + count) expired;
    if strict_drops then begin
      let declared = Hashtbl.create 8 in
      List.iter
        (function
          | Schedule.Drop { color; count } ->
              let prev =
                Option.value ~default:0 (Hashtbl.find_opt declared color)
              in
              Hashtbl.replace declared color (prev + count)
          | Schedule.Reconfigure _ | Schedule.Execute _ -> ())
        by_round.(round);
      List.iter
        (fun (color, count) ->
          let d = Option.value ~default:0 (Hashtbl.find_opt declared color) in
          if d <> count then
            flag round "drop mismatch for color %d: declared %d, expired %d"
              color d count;
          Hashtbl.remove declared color)
        expired;
      Hashtbl.iter
        (fun color d ->
          if d <> 0 then
            flag round "declared drop of %d color-%d jobs that did not expire"
              d color)
        declared
    end;
    (* arrival phase *)
    List.iter
      (fun (color, count) ->
        Pending.add pending color
          ~deadline:(round + instance.delay.(color))
          ~count)
      (if round < Array.length arrivals then arrivals.(round) else []);
    (* reconfiguration + execution events, chronological *)
    let exec_used = Hashtbl.create 16 in
    List.iter
      (function
        | Schedule.Drop _ -> ()
        | Schedule.Reconfigure { resource; mini_round; from_color; to_color }
          ->
            if mini_round < 0 || mini_round >= sched.mini_rounds then
              flag round "reconfigure in invalid mini-round %d" mini_round;
            if resource < 0 || resource >= sched.n then
              flag round "reconfigure of invalid resource %d" resource
            else begin
              if cache.(resource) <> from_color then
                flag round
                  "reconfigure of resource %d claims color %d but it holds %d"
                  resource from_color cache.(resource);
              if from_color = to_color then
                flag round "reconfigure of resource %d to its own color"
                  resource;
              cache.(resource) <- to_color;
              incr reconfigs
            end
        | Schedule.Execute { resource; mini_round; color } ->
            if mini_round < 0 || mini_round >= sched.mini_rounds then
              flag round "execute in invalid mini-round %d" mini_round;
            if resource < 0 || resource >= sched.n then
              flag round "execute on invalid resource %d" resource
            else begin
              if cache.(resource) <> color then
                flag round
                  "resource %d executes color %d but is configured to %d"
                  resource color cache.(resource);
              let key = (resource, mini_round) in
              if Hashtbl.mem exec_used key then
                flag round "resource %d executes twice in mini-round %d"
                  resource mini_round
              else Hashtbl.replace exec_used key ();
              if color < 0 || color >= instance.num_colors then
                flag round "execution of invalid color %d" color
              else
                match Pending.execute_one pending color with
                | Some _ -> incr executed
                | None ->
                    flag round "execution of color %d with no pending job"
                      color
            end)
      by_round.(round)
  done;
  let total = Instance.total_jobs instance in
  if !executed + !dropped <> total then
    flag instance.horizon "conservation: executed %d + dropped %d <> total %d"
      !executed !dropped total;
  let recomputed_cost =
    Cost.make ~reconfig:(instance.delta * !reconfigs) ~drop:!dropped
  in
  {
    ok = !violations = [];
    violations = List.rev !violations;
    recomputed_cost;
    executed = !executed;
    dropped = !dropped;
  }

let check_result ?strict_drops instance schedule (result : Engine.result) =
  let report = check ?strict_drops instance schedule in
  if Cost.equal report.recomputed_cost result.cost then report
  else
    {
      report with
      ok = false;
      violations =
        report.violations
        @ [
            {
              round = -1;
              message =
                Format.asprintf
                  "cost mismatch: engine reported %a, validator recomputed %a"
                  Cost.pp result.cost Cost.pp report.recomputed_cost;
            };
          ];
    }

let pp_report fmt r =
  if r.ok then
    Format.fprintf fmt "valid: %a, %d executed, %d dropped" Cost.pp
      r.recomputed_cost r.executed r.dropped
  else begin
    Format.fprintf fmt "INVALID (%d violations):@."
      (List.length r.violations);
    List.iter
      (fun v -> Format.fprintf fmt "  [round %d] %s@." v.round v.message)
      r.violations
  end
