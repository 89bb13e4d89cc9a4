type outcome = {
  id : string;
  title : string;
  claim : string;
  table : Rrs_report.Table.t;
  findings : string list;
}

let print outcome =
  Printf.printf "\n[%s] %s\n" outcome.id outcome.title;
  Printf.printf "paper claim: %s\n\n" outcome.claim;
  print_string (Rrs_report.Table.to_string outcome.table);
  List.iter (fun f -> Printf.printf "  -> %s\n" f) outcome.findings;
  print_newline ()

let print_markdown outcome =
  Printf.printf "\n## %s — %s\n\n" outcome.id outcome.title;
  Printf.printf "*Paper claim:* %s\n\n" outcome.claim;
  print_string (Rrs_report.Table.to_markdown outcome.table);
  print_newline ();
  List.iter (fun f -> Printf.printf "- %s\n" f) outcome.findings;
  print_newline ()

module Metrics = Rrs_obs.Metrics

let telemetry = Metrics.create ()

(* Which registry an engine run is accounted to is dynamically scoped,
   and the scope is inherited by domains spawned under it (Pool workers
   — Domain.DLS with [split_from_parent]).  So when experiments run
   concurrently on sibling domains, each one's runs — including runs
   made by its own inner Pool.map sweep — land in its own registry, and
   snapshot diffs stay exact under parallelism. *)
let scope : Metrics.t Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:Fun.id (fun () -> telemetry)

let current () = Domain.DLS.get scope

let with_telemetry reg thunk =
  let outer = Domain.DLS.get scope in
  Domain.DLS.set scope reg;
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope outer) thunk

type snapshot = { runs : int; reconfig : int; drop : int; seconds : float }

let snapshot_of reg =
  {
    runs = Metrics.value (Metrics.counter reg "engine_runs");
    reconfig = Metrics.value (Metrics.counter reg "reconfig_cost");
    drop = Metrics.value (Metrics.counter reg "drop_cost");
    seconds = Metrics.timer_total (Metrics.timer reg "engine_run");
  }

let snapshot () = snapshot_of (current ())

let record_result (result : Rrs_core.Engine.result) =
  let reg = current () in
  Metrics.inc (Metrics.counter reg "engine_runs") 1;
  Metrics.inc (Metrics.counter reg "reconfig_cost") result.reconfigurations;
  Metrics.inc (Metrics.counter reg "drop_cost") result.dropped

(* An ambient flight recorder black-boxes every harness run (a later
   crash dump shows its last round events) and an ambient heartbeat
   counts its rounds; with neither, the sink stays null and the engine
   allocates nothing for tracing. *)
let engine_sink () =
  let recorded =
    match Rrs_obs.Flight_recorder.ambient () with
    | Some r -> Rrs_obs.Flight_recorder.sink r
    | None -> Rrs_obs.Sink.null
  in
  match Rrs_obs.Heartbeat.ambient () with
  | Some hb -> Rrs_obs.Heartbeat.attach hb recorded
  | None -> recorded

let run_policy instance ~n factory =
  Rrs_fault.probe "harness.run_policy";
  let result =
    Metrics.time
      (Metrics.timer (current ()) "engine_run")
      (fun () ->
        Rrs_core.Engine.run
          (Rrs_core.Engine.config ~n ~sink:(engine_sink ()) ())
          instance factory)
  in
  record_result result;
  result

let ratio cost denom =
  if denom = 0 then if cost = 0 then 1.0 else infinity
  else float_of_int cost /. float_of_int denom

let ratio_cell cost denom = Rrs_report.Table.cell_float (ratio cost denom)
