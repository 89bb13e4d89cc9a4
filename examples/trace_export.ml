(* Observability walkthrough: sample a run's per-round metrics,
   export the time series and the instance itself as CSV, and print a
   backlog distribution summary — the workflow for taking the simulator's
   output into external analysis tooling.

   Run with:  dune exec examples/trace_export.exe
   (writes rrs_metrics.csv and rrs_instance.csv into the working
   directory) *)

open Rrs_core
module Scenarios = Rrs_workload.Scenarios
module Metrics = Rrs_trace.Metrics
module Instance_io = Rrs_trace.Instance_io

let () =
  let instance =
    Scenarios.datacenter { Scenarios.default_datacenter with phases = 8 }
  in
  Format.printf "workload: %a@." Instance.pp instance;

  (* the sampler consumes the engine's event sink: every drop, arrival,
     reconfiguration and execution of the run passes through it *)
  let metrics = Metrics.create () in
  let sink = Metrics.attach metrics Rrs_obs.Sink.null in
  let result = Engine.run (Engine.config ~n:8 ~sink ()) instance Lru_edf.policy in
  Format.printf "run: %a@." Cost.pp result.cost;

  (* the backlog distribution over rounds *)
  let summary = Metrics.backlog_summary metrics in
  Format.printf "backlog over %d rounds: %a@." result.rounds_simulated
    Rrs_stats.Summary.pp summary;

  (* peak pressure moments *)
  let peak =
    List.fold_left
      (fun acc (s : Metrics.sample) ->
        match acc with
        | Some (best : Metrics.sample) when best.backlog >= s.backlog -> acc
        | _ -> Some s)
      None (Metrics.samples metrics)
  in
  (match peak with
  | Some s ->
      Format.printf
        "peak backlog %d at round %d (%d nonidle colors, %d cached)@."
        s.backlog s.round s.nonidle_colors s.cached_colors
  | None -> ());

  (* export both artifacts *)
  let metrics_path = "rrs_metrics.csv" in
  let instance_path = "rrs_instance.csv" in
  Out_channel.with_open_text metrics_path (fun oc ->
      output_string oc (Metrics.to_csv metrics));
  Instance_io.save instance_path instance;
  Format.printf "wrote %s (%d samples) and %s@." metrics_path
    (List.length (Metrics.samples metrics))
    instance_path;

  (* prove the instance round-trips *)
  match Instance_io.load instance_path with
  | Ok loaded ->
      Format.printf "reloaded instance matches: %b@."
        (loaded.arrivals = instance.arrivals)
  | Error msg -> Format.printf "reload failed: %s@." msg
