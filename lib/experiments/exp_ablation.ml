open Rrs_core
module Adv = Rrs_workload.Adversarial
module Families = Rrs_workload.Families
module Table = Rrs_report.Table

(* an instantiated policy's run, on the harness's telemetry plane *)
let run instance ~n policy =
  Engine.run_policy
    (Engine.config ~n ~sink:(Harness.engine_sink ()) ())
    instance policy

let exp_9 () =
  let n = 16 in
  let distinct = n / 2 in
  let adv_a : Adv.dlru_params = { n; delta = 2; j = 7; k = 9 } in
  let adv_b : Adv.edf_params = { n; delta = 18; j = 5; k = 10 } in
  let workloads =
    [
      ("appendix-A", Adv.dlru_instance adv_a);
      ("appendix-B", Adv.edf_instance adv_b);
      ("router", (Option.get (Families.find "router")).build ~seed:1);
    ]
  in
  let table =
    Table.create
      ~columns:
        ("lru share"
        :: List.concat_map
             (fun (w, _) -> [ w ^ " cost"; w ^ " ratio" ])
             workloads)
  in
  let worst_of_split = ref [] in
  List.iter
    (fun lru_slots ->
      let cells = ref [] in
      let worst = ref 0.0 in
      List.iter
        (fun (_, instance) ->
          let instr =
            Lru_edf.make_tuned ~lru_slots ~distinct_slots:distinct
              ~replicated:true instance ~n
          in
          let r = run instance ~n instr.policy in
          let lb = Offline_bounds.lower_bound instance ~m:2 in
          let ratio = Harness.ratio (Cost.total r.cost) lb in
          worst := max !worst ratio;
          cells :=
            Table.cell_float ratio :: Table.cell_int (Cost.total r.cost)
            :: !cells)
        workloads;
      worst_of_split := (lru_slots, !worst) :: !worst_of_split;
      Table.add_row table
        (Printf.sprintf "%d/%d" lru_slots distinct :: List.rev !cells))
    [ 0; 2; 4; 6; 8 ];
  let worst_of_split = List.rev !worst_of_split in
  let at k = List.assoc k worst_of_split in
  (* the paper's point is an even split: lru = distinct/2 *)
  let mid_beats_extremes =
    at (distinct / 2) <= at 0 && at (distinct / 2) <= at distinct
  in
  {
    Harness.id = "EXP-9";
    title = "Ablation: LRU/EDF split of the distinct capacity";
    claim =
      "pure-EDF (share 0) blows up on the Appendix-B workload and pure-dLRU \
       (share 1) on the Appendix-A workload; the paper's even split is safe \
       on both";
    table;
    findings =
      [
        Printf.sprintf
          "worst-over-workloads ratio by split: 0/8 -> %.2f, 4/8 (paper) -> \
           %.2f, 8/8 -> %.2f"
          (at 0)
          (at (distinct / 2))
          (at distinct);
        (if mid_beats_extremes then
           "the paper's split dominates both extremes in the worst case"
         else "NOTE: the even split did not dominate on this run");
      ];
  }

let exp_10 () =
  let n = 8 in
  let table =
    Table.create
      ~columns:
        [
          "family";
          "replicated (2+2 x2) cost";
          "flat (4+4 x1) cost";
          "replicated drops";
          "flat drops";
        ]
  in
  let repl_wins = ref 0 in
  let flat_wins = ref 0 in
  List.iter
    (fun (f : Families.family) ->
      if f.layer = Families.Rate_limited then begin
        let instance = f.build ~seed:1 in
        let repl =
          let i = Lru_edf.make instance ~n in
          run instance ~n i.policy
        in
        let flat =
          let i =
            Lru_edf.make_tuned ~lru_slots:(n / 2) ~distinct_slots:n
              ~replicated:false instance ~n
          in
          run instance ~n i.policy
        in
        if Cost.total repl.cost <= Cost.total flat.cost then incr repl_wins
        else incr flat_wins;
        Table.add_row table
          [
            f.id;
            Table.cell_int (Cost.total repl.cost);
            Table.cell_int (Cost.total flat.cost);
            Table.cell_int repl.dropped;
            Table.cell_int flat.dropped;
          ]
      end)
    Families.all;
  {
    Harness.id = "EXP-10";
    title = "Ablation: replication vs flat distinct capacity";
    claim =
      "the analysis relies on every cached color executing two jobs per \
       round (replication); this table measures what that buys empirically \
       at equal n";
    table;
    findings =
      [
        Printf.sprintf "replicated layout cheaper on %d families, flat on %d"
          !repl_wins !flat_wins;
      ];
  }
