(* Domain-safety layout: counters and gauges are single atomics (the hot
   update paths stay lock-free), histograms and timers carry one mutex
   each (their Fenwick / Welford state is multi-word), and the registry
   table has its own lock for get-or-create and export.  No operation
   ever holds two locks at once, so the module cannot deadlock against
   itself. *)

type counter = int Atomic.t
type gauge = float Atomic.t

type histogram = { hist : Rrs_stats.Histogram.t; hist_mutex : Mutex.t }
type timer = { stats : Rrs_stats.Running.t; timer_mutex : Mutex.t }
type span = { timer : timer; started_at : float; mutable stopped : bool }

type instrument =
  | Counter of counter
  | Gauge of gauge
  | Histogram of histogram
  | Timer of timer

type t = {
  instruments : (string, instrument) Hashtbl.t;
  registry_mutex : Mutex.t;
}

let create () =
  { instruments = Hashtbl.create 16; registry_mutex = Mutex.create () }

(* Get-or-create under the registry lock; [make] must not itself touch
   the registry. *)
let intern t name ~kind ~project ~make =
  Mutex.protect t.registry_mutex (fun () ->
      match Hashtbl.find_opt t.instruments name with
      | Some i -> (
          match project i with
          | Some v -> v
          | None ->
              invalid_arg
                (Printf.sprintf "Metrics: %S is already registered, not as a %s"
                   name kind))
      | None ->
          let v, i = make () in
          Hashtbl.add t.instruments name i;
          v)

let counter t name =
  intern t name ~kind:"counter"
    ~project:(function Counter c -> Some c | _ -> None)
    ~make:(fun () ->
      let c = Atomic.make 0 in
      (c, Counter c))

let inc c by =
  if by < 0 then invalid_arg "Metrics.inc: negative increment";
  ignore (Atomic.fetch_and_add c by)

let value c = Atomic.get c

let gauge t name =
  intern t name ~kind:"gauge"
    ~project:(function Gauge g -> Some g | _ -> None)
    ~make:(fun () ->
      let g = Atomic.make Float.nan in
      (g, Gauge g))

let set g v = Atomic.set g v
let gauge_value g = Atomic.get g

let histogram t name ~max_value =
  intern t name ~kind:"histogram"
    ~project:(function Histogram h -> Some h | _ -> None)
    ~make:(fun () ->
      let h =
        { hist = Rrs_stats.Histogram.create ~max_value; hist_mutex = Mutex.create () }
      in
      (h, Histogram h))

let observe h v =
  Mutex.protect h.hist_mutex (fun () -> Rrs_stats.Histogram.add h.hist v)

(* A copy taken under the instrument's lock: the caller gets a frozen,
   internally consistent snapshot even while observers keep writing. *)
let histogram_stats h =
  Mutex.protect h.hist_mutex (fun () -> Rrs_stats.Histogram.copy h.hist)

let timer t name =
  intern t name ~kind:"timer"
    ~project:(function Timer tm -> Some tm | _ -> None)
    ~make:(fun () ->
      let tm =
        { stats = Rrs_stats.Running.create (); timer_mutex = Mutex.create () }
      in
      (tm, Timer tm))

let start timer = { timer; started_at = Unix.gettimeofday (); stopped = false }

let stop span =
  if span.stopped then invalid_arg "Metrics.stop: span already stopped";
  span.stopped <- true;
  let elapsed = Float.max 0. (Unix.gettimeofday () -. span.started_at) in
  Mutex.protect span.timer.timer_mutex (fun () ->
      Rrs_stats.Running.add span.timer.stats elapsed);
  elapsed

let time timer thunk =
  let span = start timer in
  Fun.protect ~finally:(fun () -> ignore (stop span)) thunk

let timer_count tm =
  Mutex.protect tm.timer_mutex (fun () -> Rrs_stats.Running.count tm.stats)

let timer_total tm =
  Mutex.protect tm.timer_mutex (fun () -> Rrs_stats.Running.sum tm.stats)

(* Same snapshot discipline as [histogram_stats]: the Welford aggregate
   is multi-word, so returning the live record would let a reader see a
   torn (count, mean, m2) triple while a span lands on another domain.
   The copy is taken under the timer's mutex, so it is always a state
   the aggregate actually passed through. *)
let timer_stats tm =
  Mutex.protect tm.timer_mutex (fun () -> Rrs_stats.Running.copy tm.stats)

let sorted_instruments t =
  Mutex.protect t.registry_mutex (fun () ->
      Hashtbl.fold (fun name i acc -> (name, i) :: acc) t.instruments [])
  |> List.sort (fun (a, _) (b, _) -> compare a b)

let counters t =
  List.filter_map
    (function name, Counter c -> Some (name, Atomic.get c) | _ -> None)
    (sorted_instruments t)

let timers t =
  List.filter_map
    (fun (name, i) ->
      match i with
      | Timer tm ->
          Some
            (Mutex.protect tm.timer_mutex (fun () ->
                 ( name,
                   Rrs_stats.Running.count tm.stats,
                   Rrs_stats.Running.sum tm.stats )))
      | _ -> None)
    (sorted_instruments t)

let merge_into ~into src =
  List.iter
    (fun (name, i) ->
      match i with
      | Counter c -> ignore (Atomic.fetch_and_add (counter into name) (Atomic.get c))
      | Gauge g ->
          let v = Atomic.get g in
          if not (Float.is_nan v) then Atomic.set (gauge into name) v
      | Histogram h ->
          (* snapshot src under its own lock, then write under the
             destination's — never both at once *)
          let snapshot =
            Mutex.protect h.hist_mutex (fun () ->
                Rrs_stats.Histogram.copy h.hist)
          in
          let dst =
            histogram into name
              ~max_value:(Rrs_stats.Histogram.max_value snapshot)
          in
          Mutex.protect dst.hist_mutex (fun () ->
              Rrs_stats.Histogram.merge_into ~into:dst.hist snapshot)
      | Timer tm ->
          let snapshot =
            Mutex.protect tm.timer_mutex (fun () ->
                Rrs_stats.Running.copy tm.stats)
          in
          let dst = timer into name in
          Mutex.protect dst.timer_mutex (fun () ->
              Rrs_stats.Running.merge_into ~into:dst.stats snapshot))
    (sorted_instruments src)

(* Prometheus text exposition (format 0.0.4): one block per instrument,
   names folded onto the Prometheus grammar.  Histograms and timers
   render as summaries — histograms with exact quantiles (the Fenwick
   state answers them directly), timers with count/sum only (Welford
   keeps no quantile state).  Unset gauges (NaN) are omitted: absence
   is the Prometheus idiom for "no sample", and NaN would poison any
   aggregation. *)
let prom_name name =
  String.mapi
    (fun i c ->
      match c with
      | 'A' .. 'Z' | 'a' .. 'z' | '_' | ':' -> c
      | '0' .. '9' when i > 0 -> c
      | _ -> '_')
    name

let prom_float v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else Printf.sprintf "%.12g" v

let expose t =
  let buf = Buffer.create 1024 in
  let line fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string buf s;
        Buffer.add_char buf '\n')
      fmt
  in
  List.iter
    (fun (name, i) ->
      let n = prom_name name in
      match i with
      | Counter c ->
          line "# TYPE %s counter" n;
          line "%s %d" n (Atomic.get c)
      | Gauge g ->
          let v = Atomic.get g in
          if not (Float.is_nan v) then begin
            line "# TYPE %s gauge" n;
            line "%s %s" n (prom_float v)
          end
      | Histogram h ->
          let snapshot =
            Mutex.protect h.hist_mutex (fun () ->
                Rrs_stats.Histogram.copy h.hist)
          in
          let count = Rrs_stats.Histogram.count snapshot in
          line "# TYPE %s summary" n;
          if count > 0 then
            List.iter
              (fun q ->
                line "%s{quantile=\"%g\"} %d" n q
                  (Rrs_stats.Histogram.quantile snapshot q))
              [ 0.5; 0.95; 0.99 ];
          let sum =
            List.fold_left
              (fun acc (v, c) -> acc +. (float_of_int v *. float_of_int c))
              0.
              (Rrs_stats.Histogram.to_assoc snapshot)
          in
          line "%s_sum %s" n (prom_float sum);
          line "%s_count %d" n count
      | Timer tm ->
          let snapshot =
            Mutex.protect tm.timer_mutex (fun () ->
                Rrs_stats.Running.copy tm.stats)
          in
          let n = n ^ "_seconds" in
          line "# TYPE %s summary" n;
          line "%s_sum %s" n (prom_float (Rrs_stats.Running.sum snapshot));
          line "%s_count %d" n (Rrs_stats.Running.count snapshot))
    (sorted_instruments t);
  Buffer.contents buf

let to_json t =
  let all = sorted_instruments t in
  let section f = List.filter_map f all in
  let counters =
    section (function
      | name, Counter c -> Some (name, Json.Int (Atomic.get c))
      | _ -> None)
  in
  let gauges =
    section (function
      | name, Gauge g ->
          let v = Atomic.get g in
          Some (name, if Float.is_nan v then Json.Null else Json.Float v)
      | _ -> None)
  in
  let histograms =
    section (function
      | name, Histogram h ->
          Mutex.protect h.hist_mutex (fun () ->
              let buckets =
                List.map
                  (fun (v, c) -> Json.List [ Json.Int v; Json.Int c ])
                  (Rrs_stats.Histogram.to_assoc h.hist)
              in
              Some
                ( name,
                  Json.Assoc
                    [
                      ("count", Json.Int (Rrs_stats.Histogram.count h.hist));
                      ("clamped", Json.Int (Rrs_stats.Histogram.clamped h.hist));
                      ("buckets", Json.List buckets);
                    ] ))
      | _ -> None)
  in
  let timer_sections =
    section (function
      | name, Timer tm ->
          Mutex.protect tm.timer_mutex (fun () ->
              let count = Rrs_stats.Running.count tm.stats in
              Some
                ( name,
                  Json.Assoc
                    [
                      ("count", Json.Int count);
                      ("total_s", Json.Float (Rrs_stats.Running.sum tm.stats));
                      ( "mean_s",
                        if count = 0 then Json.Null
                        else Json.Float (Rrs_stats.Running.mean tm.stats) );
                      ( "max_s",
                        if count = 0 then Json.Null
                        else Json.Float (Rrs_stats.Running.max tm.stats) );
                    ] ))
      | _ -> None)
  in
  Json.Assoc
    [
      ("counters", Json.Assoc counters);
      ("gauges", Json.Assoc gauges);
      ("histograms", Json.Assoc histograms);
      ("timers", Json.Assoc timer_sections);
    ]
