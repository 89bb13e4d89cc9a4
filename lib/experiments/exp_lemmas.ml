open Rrs_core
module Families = Rrs_workload.Families
module Table = Rrs_report.Table

let n = 8
let seeds = [ 1; 2; 3; 4; 5 ]

let rate_limited_runs () =
  let tasks =
    List.concat_map
      (fun (f : Families.family) -> List.map (fun seed -> (f, seed)) seeds)
      (List.filter
         (fun f -> f.Families.layer = Families.Rate_limited)
         Families.all)
  in
  Rrs_parallel.Pool.map
    (fun ((f : Families.family), seed) ->
      let instance = f.build ~seed in
      let instr = Lru_edf.make instance ~n in
      let result =
        Engine.run_policy
          (Engine.config ~n ~sink:(Harness.engine_sink ()) ())
          instance instr.policy
      in
      (f.id, seed, instance, result, instr.eligibility))
    tasks

let exp_4 () =
  let table =
    Table.create
      ~columns:
        [
          "family";
          "seed";
          "epochs";
          "reconfig cost";
          "bound 4*ep*delta";
          "use%";
          "inelig drops";
          "bound ep*delta";
          "use%";
        ]
  in
  let ok = ref true in
  List.iter
    (fun (id, seed, (instance : Instance.t), (result : Engine.result), elig) ->
      let epochs = Eligibility.epochs_total elig in
      let reconfig_bound = 4 * epochs * instance.delta in
      let drop_bound = epochs * instance.delta in
      let inelig = Eligibility.ineligible_drops elig in
      if result.cost.reconfig > reconfig_bound || inelig > drop_bound then
        ok := false;
      let pct v b =
        if b = 0 then "0" else Printf.sprintf "%d" (100 * v / b)
      in
      Table.add_row table
        [
          id;
          Table.cell_int seed;
          Table.cell_int epochs;
          Table.cell_int result.cost.reconfig;
          Table.cell_int reconfig_bound;
          pct result.cost.reconfig reconfig_bound;
          Table.cell_int inelig;
          Table.cell_int drop_bound;
          pct inelig drop_bound;
        ])
    (rate_limited_runs ());
  {
    Harness.id = "EXP-4";
    title = "Lemmas 3.3 / 3.4: epoch-charged cost bounds";
    claim =
      "ReconfigCost <= 4 * numEpochs * delta and IneligibleDropCost <= \
       numEpochs * delta on every run";
    table;
    findings =
      [
        (if !ok then "both bounds hold on every (family, seed) run"
         else "BOUND VIOLATED - implementation diverges from the analysis");
      ];
  }

let exp_5 () =
  let table =
    Table.create
      ~columns:
        [
          "family";
          "seed";
          "eligible drops (dLRU-EDF, n=8)";
          "Par-EDF(m=2) drops";
          "slack";
        ]
  in
  let ok = ref true in
  List.iter
    (fun (id, seed, instance, (_ : Engine.result), elig) ->
      let eligible = Eligibility.eligible_drops elig in
      let par = Par_edf.drop_cost instance ~m:(n / 4) in
      if eligible > par then ok := false;
      Table.add_row table
        [
          id;
          Table.cell_int seed;
          Table.cell_int eligible;
          Table.cell_int par;
          Table.cell_int (par - eligible);
        ])
    (rate_limited_runs ());
  {
    Harness.id = "EXP-5";
    title = "Lemma 3.2 chain: eligible drops vs Par-EDF";
    claim =
      "EligibleDropCost(dLRU-EDF with n) <= DropCost(Par-EDF with n/4) <= \
       DropCost(OFF)";
    table;
    findings =
      [
        (if !ok then "the inequality holds on every run"
         else "INEQUALITY VIOLATED - implementation diverges from Lemma 3.10");
      ];
  }
