open Rrs_core
module Families = Rrs_workload.Families
module Table = Rrs_report.Table

let record ~n instance factory =
  let sink = Rrs_obs.Sink.memory () in
  let r = Engine.run (Engine.config ~n ~sink ()) instance factory in
  (r, Schedule.of_events ~n ~mini_rounds:1 (Rrs_obs.Sink.events sink))

let exp_12 () =
  let m = 2 in
  let table =
    Table.create
      ~columns:
        [
          "family";
          "construction";
          "jobs executed (in = out)";
          "reconfig in";
          "reconfig out";
          "blow-up";
        ]
  in
  let worst_aggregate = ref 0.0 in
  let worst_punctual = ref 0.0 in
  let all_preserved = ref true in
  List.iter
    (fun (f : Families.family) ->
      let instance = f.build ~seed:1 in
      let plan = Offline_heuristics.interval_plan instance ~m ~window:16 in
      let result, t = record ~n:m instance plan in
      (* Aggregate needs a batched power-of-two instance *)
      if
        Instance.is_batched instance
        && Instance.delays_are_powers_of_two instance
      then begin
        let mapping = Distribute.transform instance in
        match Aggregate.verify instance ~mapping t with
        | Error msg -> failwith ("EXP-12 aggregate: " ^ msg)
        | Ok (t', report) ->
            if report.executed <> result.executed then all_preserved := false;
            let blow_up =
              Harness.ratio
                (Schedule.reconfig_count t')
                (max 1 (Schedule.reconfig_count t))
            in
            worst_aggregate := max !worst_aggregate blow_up;
            Table.add_row table
              [
                f.id;
                "Aggregate (Lemma 4.1)";
                Printf.sprintf "%d = %d" result.executed report.executed;
                Table.cell_int (Schedule.reconfig_count t);
                Table.cell_int (Schedule.reconfig_count t');
                Table.cell_float blow_up;
              ]
      end;
      (* the punctual construction applies to any pow2-delay instance *)
      if Instance.delays_are_powers_of_two instance then begin
        let t' = Punctual.make_punctual instance t in
        let report = Validator.check ~strict_drops:false instance t' in
        if (not report.ok) || report.executed <> result.executed then
          all_preserved := false;
        let blow_up =
          Harness.ratio
            (Schedule.reconfig_count t')
            (max 1 (Schedule.reconfig_count t))
        in
        worst_punctual := max !worst_punctual blow_up;
        Table.add_row table
          [
            f.id;
            "Punctual (Lemma 5.3)";
            Printf.sprintf "%d = %d" result.executed report.executed;
            Table.cell_int (Schedule.reconfig_count t);
            Table.cell_int (Schedule.reconfig_count t');
            Table.cell_float blow_up;
          ]
      end)
    Families.all;
  {
    Harness.id = "EXP-12";
    title = "Constructive transformations: Aggregate and Punctual";
    claim =
      "both schedule transformations preserve the executed-job count \
       exactly (drop cost unchanged) and pay at most a constant-factor \
       reconfiguration overhead (the paper's constants are ~6-12)";
    table;
    findings =
      [
        (if !all_preserved then "every transformation preserved executions"
         else "EXECUTION COUNT CHANGED - investigate");
        Printf.sprintf
          "worst reconfiguration blow-up: Aggregate %.2fx, Punctual %.2fx"
          !worst_aggregate !worst_punctual;
      ];
  }
