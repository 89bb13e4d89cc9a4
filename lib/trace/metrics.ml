open Rrs_core

type sample = {
  round : Types.round;
  backlog : int;
  nonidle_colors : int;
  cached_colors : int;
  cumulative_drops : int;
  cumulative_recolorings : int;
}

type t = {
  mutable series : sample list; (* reverse chronological *)
  registry : Rrs_obs.Metrics.t;
  drops : Rrs_obs.Metrics.counter;
  recolorings : Rrs_obs.Metrics.counter;
  backlog_hist : Rrs_obs.Metrics.histogram;
  rounds : Rrs_obs.Metrics.counter;
  latency : Rrs_obs.Metrics.histogram;
  mutable pending_total : int; (* Σ arrivals − Σ drops − Σ executions *)
  pending : (Types.color, int) Hashtbl.t; (* nonzero pending count per color *)
  holders : (Types.color, int) Hashtbl.t; (* resources configured per color *)
}

let create ?registry () =
  let registry =
    match registry with Some r -> r | None -> Rrs_obs.Metrics.create ()
  in
  {
    series = [];
    registry;
    drops = Rrs_obs.Metrics.counter registry "drops";
    recolorings = Rrs_obs.Metrics.counter registry "recolorings";
    backlog_hist =
      Rrs_obs.Metrics.histogram registry "backlog" ~max_value:4096;
    rounds = Rrs_obs.Metrics.counter registry "engine_rounds";
    latency =
      Rrs_obs.Metrics.histogram registry "engine_round_latency_us"
        ~max_value:Rrs_obs.Heartbeat.round_latency_max_us;
    pending_total = 0;
    pending = Hashtbl.create 64;
    holders = Hashtbl.create 16;
  }

(* Nonzero counts only, so [Hashtbl.length] is the number of colors in
   use (nonidle, cached). *)
let bump tbl color delta =
  if color <> Types.black then
    match Hashtbl.find_opt tbl color with
    | Some v when v + delta = 0 -> Hashtbl.remove tbl color
    | Some v -> Hashtbl.replace tbl color (v + delta)
    | None -> Hashtbl.replace tbl color delta

let sample t round =
  {
    round;
    backlog = t.pending_total;
    nonidle_colors = Hashtbl.length t.pending;
    cached_colors = Hashtbl.length t.holders;
    cumulative_drops = Rrs_obs.Metrics.value t.drops;
    cumulative_recolorings = Rrs_obs.Metrics.value t.recolorings;
  }

(* A round's sample is taken at its [Mini_round] event, where the
   backlog and nonidle colors stand as the policy sees them, and retaken
   after each recoloring of that mini-round; a later mini-round of the
   same round replaces it. *)
let record t round =
  t.series <-
    sample t round
    :: (match t.series with s :: rest when s.round = round -> rest | l -> l)

let observe t (event : Rrs_obs.Event.t) =
  match event with
  | Arrival { color; count; _ } ->
      t.pending_total <- t.pending_total + count;
      bump t.pending color count
  | Drop { color; count; _ } ->
      t.pending_total <- t.pending_total - count;
      bump t.pending color (-count);
      Rrs_obs.Metrics.inc t.drops count
  | Execute { color; _ } ->
      t.pending_total <- t.pending_total - 1;
      bump t.pending color (-1)
  | Reconfigure { round; from_color; to_color; _ } ->
      Rrs_obs.Metrics.inc t.recolorings 1;
      bump t.holders from_color (-1);
      bump t.holders to_color 1;
      record t round
  | Mini_round { round; mini_round } ->
      if mini_round = 0 then
        Rrs_obs.Metrics.observe t.backlog_hist t.pending_total;
      record t round
  | Round_end { latency_us; _ } ->
      Rrs_obs.Metrics.inc t.rounds 1;
      Rrs_obs.Metrics.observe t.latency latency_us
  | _ -> ()

let attach t inner =
  Rrs_obs.Sink.callback (fun event ->
      observe t event;
      Rrs_obs.Sink.emit inner event)

let samples t = List.rev t.series
let round_latency t = Rrs_obs.Metrics.histogram_stats t.latency

let to_csv t =
  let header =
    [
      "round";
      "backlog";
      "nonidle_colors";
      "cached_colors";
      "cumulative_drops";
      "cumulative_recolorings";
    ]
  in
  let rows =
    List.map
      (fun s ->
        List.map string_of_int
          [
            s.round;
            s.backlog;
            s.nonidle_colors;
            s.cached_colors;
            s.cumulative_drops;
            s.cumulative_recolorings;
          ])
      (samples t)
  in
  Csv.render (header :: rows)

let sample_to_json s =
  Rrs_obs.Json.Assoc
    [
      ("type", Rrs_obs.Json.String "metrics_sample");
      ("round", Rrs_obs.Json.Int s.round);
      ("backlog", Rrs_obs.Json.Int s.backlog);
      ("nonidle_colors", Rrs_obs.Json.Int s.nonidle_colors);
      ("cached_colors", Rrs_obs.Json.Int s.cached_colors);
      ("cumulative_drops", Rrs_obs.Json.Int s.cumulative_drops);
      ("cumulative_recolorings", Rrs_obs.Json.Int s.cumulative_recolorings);
    ]

let to_jsonl t =
  let buf = Buffer.create 1024 in
  List.iter
    (fun s ->
      Buffer.add_string buf (Rrs_obs.Json.to_string (sample_to_json s));
      Buffer.add_char buf '\n')
    (samples t);
  Buffer.add_string buf
    (Rrs_obs.Json.to_string
       (Rrs_obs.Json.Assoc
          [
            ("type", Rrs_obs.Json.String "metrics_registry");
            ("registry", Rrs_obs.Metrics.to_json t.registry);
          ]));
  Buffer.add_char buf '\n';
  Buffer.contents buf

let backlog_summary t =
  Rrs_stats.Summary.of_list
    (List.map (fun s -> float_of_int s.backlog) (samples t))
