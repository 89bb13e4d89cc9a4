module Run_summary = Rrs_obs.Run_summary

type direction = Higher_better | Lower_better | Exact | Info

type rule = {
  pattern : string;
  direction : direction;
  rel_tol : float;
  abs_tol : float;
}

let rule ?(rel_tol = 0.) ?(abs_tol = 0.) pattern direction =
  { pattern; direction; rel_tol; abs_tol }

(* Gating philosophy (see .mli): deterministic-by-construction metrics
   exact; machine-relative ratios tight; absolute wall-clock loose or
   informational.  Order matters — first match wins. *)
let default_rules =
  [
    (* correctness-bearing counts: any drift is a failure *)
    rule "analysis.divergences" Exact;
    rule "analysis.uncontained" Exact;
    rule "analysis.identical" Exact;
    rule "analysis.cases" Exact;
    rule "analysis.contained" Exact;
    rule "analysis.artifacts_parseable" Exact;
    rule "cost.*" Exact;
    rule "analysis.rounds" Exact;
    rule "analysis.engine_runs" Exact;
    rule "analysis.*_replayed_ops" Exact;
    rule "analysis.*_disk_bytes" Exact;
    (* deterministic work counts: improvements fine, growth gated *)
    rule ~rel_tol:0.10 "analysis.ranking_updates" Lower_better;
    (* the flat hot path holds allocations near zero, so the band is
       tight: noise headroom only, any real regression trips it *)
    rule ~rel_tol:0.08 ~abs_tol:16. "analysis.alloc_*" Lower_better;
    (* machine-relative ratio — the load-bearing perf gate *)
    rule ~rel_tol:0.35 ~abs_tol:0.15 "analysis.speedup" Higher_better;
    (* absolute machine speed: gate only on order-of-magnitude collapse *)
    rule ~rel_tol:0.75 "analysis.*_rounds_per_sec" Higher_better;
    (* pure wall clock: never gate across machines *)
    rule "analysis.*_seconds" Info;
    rule "analysis.*_us" Info;
    rule "*" Info;
  ]

(* One ['*'] anywhere: the name must carry the pattern's prefix and
   suffix without overlapping.  ["analysis.*_rounds_per_sec"] matches
   ["analysis.incremental_rounds_per_sec"]; ["*"] matches anything. *)
let matches pattern name =
  match String.index_opt pattern '*' with
  | None -> String.equal pattern name
  | Some i ->
      let prefix = String.sub pattern 0 i in
      let suffix = String.sub pattern (i + 1) (String.length pattern - i - 1) in
      String.length name >= String.length prefix + String.length suffix
      && String.starts_with ~prefix name
      && String.ends_with ~suffix name

let resolve rules name =
  match List.find_opt (fun r -> matches r.pattern name) rules with
  | Some r -> r
  | None -> rule "*" Info (* unreachable with the default catch-all *)

type verdict = Regression | Improvement | Within | Informational

type delta = {
  id : string;
  metric : string;
  baseline : float;
  current : float;
  worsening : float;
  verdict : verdict;
  matched : rule;
}

type report = {
  deltas : delta list;
  missing_ids : string list;
  new_ids : string list;
  regressions : int;
}

(* Signed relative worsening: positive means the current value moved in
   the rule's bad direction.  Relative to |baseline|; a zero baseline
   with a differing current is infinite relative change. *)
let relative_worsening direction ~baseline ~current =
  let diff =
    match direction with
    | Higher_better -> baseline -. current
    | Lower_better | Exact | Info -> current -. baseline
  in
  if diff = 0. then 0.
  else if baseline = 0. then if diff > 0. then infinity else neg_infinity
  else diff /. Float.abs baseline

let judge (r : rule) ~baseline ~current =
  let worsening = relative_worsening r.direction ~baseline ~current in
  let verdict =
    match r.direction with
    | Info -> Informational
    | Exact -> if baseline = current then Within else Regression
    | Higher_better | Lower_better ->
        if worsening <= 0. then if worsening = 0. then Within else Improvement
        else begin
          let abs_worse =
            match r.direction with
            | Higher_better -> baseline -. current
            | _ -> current -. baseline
          in
          if worsening <= r.rel_tol || abs_worse <= r.abs_tol then Within
          else Regression
        end
  in
  (worsening, verdict)

let metrics_of (s : Run_summary.t) =
  [
    ("cost.reconfig", float_of_int s.reconfig_cost);
    ("cost.drop", float_of_int s.drop_cost);
    ("cost.total", float_of_int (Run_summary.total_cost s));
  ]
  @ List.map (fun (k, v) -> ("analysis." ^ k, v)) s.analysis

let severity = function
  | Regression -> 0
  | Improvement -> 1
  | Within -> 2
  | Informational -> 3

let magnitude d =
  let m = Float.abs d.worsening in
  if Float.is_nan m then 0. else m

let rank a b =
  match compare (severity a.verdict) (severity b.verdict) with
  | 0 -> (
      match compare (magnitude b) (magnitude a) with
      | 0 -> compare (a.id, a.metric) (b.id, b.metric)
      | c -> c)
  | c -> c

let compare_summaries ?(rules = []) ~baseline ~current () =
  let rules = rules @ default_rules in
  let find_current id =
    List.find_opt (fun (s : Run_summary.t) -> s.id = id) current
  in
  let deltas = ref [] in
  let missing = ref [] in
  List.iter
    (fun (b : Run_summary.t) ->
      match find_current b.id with
      | None -> missing := b.id :: !missing
      | Some c ->
          let current_metrics = metrics_of c in
          List.iter
            (fun (metric, bv) ->
              match List.assoc_opt metric current_metrics with
              | None ->
                  (* a metric the current run stopped producing: treat
                     like a missing record, scoped to the metric *)
                  deltas :=
                    {
                      id = b.id;
                      metric;
                      baseline = bv;
                      current = Float.nan;
                      worsening = infinity;
                      verdict = Regression;
                      matched = rule "*" Exact;
                    }
                    :: !deltas
              | Some cv ->
                  let r = resolve rules metric in
                  let worsening, verdict = judge r ~baseline:bv ~current:cv in
                  deltas :=
                    {
                      id = b.id;
                      metric;
                      baseline = bv;
                      current = cv;
                      worsening;
                      verdict;
                      matched = r;
                    }
                    :: !deltas)
            (metrics_of b))
    baseline;
  let baseline_ids = List.map (fun (s : Run_summary.t) -> s.id) baseline in
  let new_ids =
    List.filter_map
      (fun (s : Run_summary.t) ->
        if List.mem s.id baseline_ids then None else Some s.id)
      current
  in
  let deltas = List.sort rank !deltas in
  let missing_ids = List.rev !missing in
  let regression_deltas =
    List.length (List.filter (fun d -> d.verdict = Regression) deltas)
  in
  {
    deltas;
    missing_ids;
    new_ids;
    regressions = regression_deltas + List.length missing_ids;
  }

let ( let* ) = Result.bind

let compare_files ?rules ~baseline ~current () =
  let* b = Run_summary.load baseline in
  let* c = Run_summary.load current in
  Ok (compare_summaries ?rules ~baseline:b ~current:c ())

let ok report = report.regressions = 0

let verdict_tag = function
  | Regression -> "REGRESSION"
  | Improvement -> "improved"
  | Within -> "ok"
  | Informational -> "info"

let pct w =
  if Float.is_integer (w *. 100.) && Float.abs w < 100. then
    Printf.sprintf "%+.0f%%" (w *. 100.)
  else if Float.abs w = infinity then (if w > 0. then "+inf" else "-inf")
  else Printf.sprintf "%+.1f%%" (w *. 100.)

let render ?(max_rows = 40) report =
  let buf = Buffer.create 4096 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  List.iter (fun id -> line "MISSING: baseline id %S has no current record" id)
    report.missing_ids;
  List.iter (fun id -> line "new id (not in baseline): %s" id) report.new_ids;
  let shown = ref 0 in
  List.iter
    (fun d ->
      let gated = d.verdict = Regression in
      if gated || !shown < max_rows then begin
        if not gated then incr shown;
        line "%-10s %-28s %-34s %14g -> %-14g %s" (verdict_tag d.verdict) d.id
          d.metric d.baseline d.current
          (if d.matched.direction = Exact then
             if gated then "(exact)" else ""
           else pct d.worsening)
      end)
    report.deltas;
  let hidden =
    List.length (List.filter (fun d -> d.verdict <> Regression) report.deltas)
    - !shown
  in
  if hidden > 0 then line "... %d unremarkable metrics not shown" hidden;
  line "benchdiff: %d metric(s) compared, %d regression(s)%s"
    (List.length report.deltas)
    report.regressions
    (if report.regressions = 0 then " — PASS" else " — FAIL");
  Buffer.contents buf
