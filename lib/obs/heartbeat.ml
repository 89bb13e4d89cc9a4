(* One mutex guards all state: observe_round is a handful of integer
   adds per round (an engine round is tens of microseconds, the lock is
   uncontended except in multi-engine sweeps), and beats — file writes
   included — happen under the same lock so lines, the status file and
   the totals they describe can never disagree. *)

let round_latency_max_us = 65535

type t = {
  lock : Mutex.t;
  every_rounds : int;
  every_seconds : float option;
  clock : unit -> float;
  stream : out_channel option;
  status_path : string option;
  expose_path : string option;
  registry : Metrics.t option;
  extra : (unit -> (string * Json.t) list) option;
  (* totals *)
  mutable beats : int;
  mutable rounds : int;
  mutable last_round : int;
  mutable reconfig_cost : int;
  mutable drop_cost : int;
  mutable recolorings : int;
  mutable executed : int;
  (* window since the last beat.  Latencies are raw samples in a
     scratch buffer reused across windows (a window holds ~every_rounds
     values), sorted at beat time for exact quantiles — recreating a
     round_latency_max_us-bucket histogram per beat would dwarf the
     cost of everything else the heartbeat does. *)
  mutable rounds_since : int;
  mutable last_beat_at : float;
  mutable lat : int array;
  mutable lat_len : int;
  mutable minor0 : float;
  mutable major0 : float;
  mutable last_line : string option;
  mutable closed : bool;
}

let create ?(every_rounds = 64) ?every_seconds ?(clock = Unix.gettimeofday)
    ?path ?status_path ?expose_path ?registry ?extra () =
  if every_rounds < 1 then invalid_arg "Heartbeat.create: every_rounds < 1";
  let minor0 = Gc.minor_words () in
  let major0 = (Gc.quick_stat ()).Gc.major_words in
  {
    lock = Mutex.create ();
    every_rounds;
    every_seconds;
    clock;
    stream = Option.map open_out path;
    status_path;
    expose_path;
    registry;
    extra;
    beats = 0;
    rounds = 0;
    last_round = -1;
    reconfig_cost = 0;
    drop_cost = 0;
    recolorings = 0;
    executed = 0;
    rounds_since = 0;
    last_beat_at = clock ();
    lat = Array.make (max 16 (min every_rounds 1024)) 0;
    lat_len = 0;
    minor0;
    major0;
    last_line = None;
    closed = false;
  }

let replace_file path contents =
  let temp = path ^ ".tmp." ^ string_of_int (Unix.getpid ()) in
  Out_channel.with_open_text temp (fun oc -> output_string oc contents);
  Sys.rename temp path

(* Called with the lock held. *)
let beat_locked t ~final =
  let now = t.clock () in
  let minor1 = Gc.minor_words () in
  let gc = Gc.quick_stat () in
  let major1 = gc.Gc.major_words in
  let per_round v0 v1 =
    (v1 -. v0) /. float_of_int (max t.rounds_since 1)
  in
  let latency =
    if t.lat_len = 0 then []
    else begin
      let sorted = Array.sub t.lat 0 t.lat_len in
      Array.sort (fun (a : int) b -> Stdlib.compare a b) sorted;
      (* same rank convention as Rrs_stats.Histogram.quantile *)
      let quantile q =
        let rank =
          Stdlib.max 1 (int_of_float (ceil (q *. float_of_int t.lat_len)))
        in
        sorted.(rank - 1)
      in
      List.map
        (fun (name, q) -> (name, Json.Int (quantile q)))
        [
          ("round_latency_p50_us", 0.5);
          ("round_latency_p95_us", 0.95);
          ("round_latency_p99_us", 0.99);
        ]
    end
  in
  t.beats <- t.beats + 1;
  let line =
    Json.to_string
      (Json.Assoc
         ([
            ("type", Json.String "heartbeat");
            ("beat", Json.Int t.beats);
            ("round", Json.Int t.last_round);
            ("rounds", Json.Int t.rounds);
            ("reconfig_cost", Json.Int t.reconfig_cost);
            ("drop_cost", Json.Int t.drop_cost);
            ("total_cost", Json.Int (t.reconfig_cost + t.drop_cost));
            ("recolorings", Json.Int t.recolorings);
            ("executed", Json.Int t.executed);
            ("rounds_since", Json.Int t.rounds_since);
            ("seconds_since", Json.Float (Float.max 0. (now -. t.last_beat_at)));
          ]
         @ latency
         @ [
             ( "alloc_minor_words_per_round",
               Json.Float (per_round t.minor0 minor1) );
             ( "alloc_major_words_per_round",
               Json.Float (per_round t.major0 major1) );
             ("major_collections", Json.Int gc.Gc.major_collections);
           ]
         @ (match t.extra with Some f -> f () | None -> [])
         @ if final then [ ("final", Json.Bool true) ] else []))
  in
  (match t.stream with
  | Some oc ->
      output_string oc (line ^ "\n");
      flush oc
  | None -> ());
  (match t.status_path with
  | Some path -> replace_file path (line ^ "\n")
  | None -> ());
  (match (t.expose_path, t.registry) with
  | Some path, Some reg -> replace_file path (Metrics.expose reg)
  | _ -> ());
  (match Flight_recorder.ambient () with
  | Some r -> Flight_recorder.record_snapshot r (Json.parse_exn line)
  | None -> ());
  t.last_line <- Some line;
  (* reset the window; the sample buffer is reused *)
  t.rounds_since <- 0;
  t.last_beat_at <- now;
  t.lat_len <- 0;
  t.minor0 <- minor1;
  t.major0 <- major1

(* The engine calls this once per round: lock/unlock inline (no
   Mutex.protect closure — a per-round allocation would show up in the
   BENCH_core alloc gate) and only integer stores on the fast path. *)
let observe_round t ~round ~delta ~recolorings ~executed ~dropped ~latency_us =
  Mutex.lock t.lock;
  (match
     if not t.closed then begin
       t.rounds <- t.rounds + 1;
       t.last_round <- round;
       t.recolorings <- t.recolorings + recolorings;
       t.reconfig_cost <- t.reconfig_cost + (delta * recolorings);
       t.executed <- t.executed + executed;
       t.drop_cost <- t.drop_cost + dropped;
       t.rounds_since <- t.rounds_since + 1;
       if latency_us >= 0 then begin
         if t.lat_len = Array.length t.lat then begin
           let bigger = Array.make (2 * t.lat_len) 0 in
           Array.blit t.lat 0 bigger 0 t.lat_len;
           t.lat <- bigger
         end;
         t.lat.(t.lat_len) <- min latency_us round_latency_max_us;
         t.lat_len <- t.lat_len + 1
       end;
       let due =
         t.rounds_since >= t.every_rounds
         ||
         match t.every_seconds with
         | Some s -> t.clock () -. t.last_beat_at >= s
         | None -> false
       in
       if due then beat_locked t ~final:false
     end
   with
  | () -> Mutex.unlock t.lock
  | exception e ->
      Mutex.unlock t.lock;
      raise e)

let beat t =
  Mutex.protect t.lock (fun () ->
      if (not t.closed) && (t.rounds_since > 0 || t.beats = 0) then
        beat_locked t ~final:false)

let finish t =
  Mutex.protect t.lock (fun () ->
      if not t.closed then begin
        beat_locked t ~final:true;
        t.closed <- true;
        match t.stream with Some oc -> close_out oc | None -> ()
      end)

let beats t = Mutex.protect t.lock (fun () -> t.beats)
let rounds_observed t = Mutex.protect t.lock (fun () -> t.rounds)
let last_line t = Mutex.protect t.lock (fun () -> t.last_line)

let scope : t option Domain.DLS.key =
  Domain.DLS.new_key ~split_from_parent:Fun.id (fun () -> None)

let with_heartbeat t thunk =
  let outer = Domain.DLS.get scope in
  Domain.DLS.set scope (Some t);
  Fun.protect ~finally:(fun () -> Domain.DLS.set scope outer) thunk

let ambient () = Domain.DLS.get scope
