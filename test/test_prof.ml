(* The profiling observatory: structural validity of the Chrome trace
   export, multi-domain track separation, and — the load-bearing
   property — non-perturbation: an instrumented run makes bit-identical
   decisions with and without an attached profiler (reusing the
   differential harness's Engine.result structural equality). *)

open Rrs_core
module Prof = Rrs_prof
module Json = Rrs_obs.Json
module Families = Rrs_workload.Families

let arr round color count = { Types.round; color; count }

let small_instance () =
  Instance.create ~delta:2
    ~delay:[| 4; 4; 8; 8 |]
    ~arrivals:[ arr 0 0 6; arr 0 2 4; arr 4 1 6; arr 8 3 8; arr 12 0 4 ]
    ()

let run_instrumented instance =
  Engine.run (Engine.config ~n:8 ()) instance Lru_edf.policy

(* ------------------------------------------------------------------ *)
(* Chrome trace structure                                              *)
(* ------------------------------------------------------------------ *)

type ev = {
  ph : string;
  name : string;
  tid : int;
  ts : float; (* nan for metadata events, which carry no ts *)
}

let parse_events trace =
  let doc = Json.parse_exn trace in
  let events =
    match Json.member "traceEvents" doc with
    | Some l -> Result.get_ok (Json.to_list l)
    | None -> Alcotest.fail "no traceEvents field"
  in
  List.map
    (fun e ->
      let str f =
        match Json.member f e with
        | Some s -> Result.get_ok (Json.to_string_lit s)
        | None -> Alcotest.failf "event without %S: %s" f (Json.to_string e)
      in
      let num f =
        match Json.member f e with
        | Some n -> Result.get_ok (Json.to_float n)
        | None -> Float.nan
      in
      {
        ph = str "ph";
        name = str "name";
        tid = int_of_float (num "tid");
        ts = num "ts";
      })
    events

(* Replay one track's B/E events: stack discipline (every E names the
   innermost open B), monotone timestamps, empty stack at the end. *)
let check_track tid evs =
  let stack = ref [] in
  let last_ts = ref neg_infinity in
  List.iter
    (fun e ->
      if e.ph <> "M" then begin
        Alcotest.(check bool)
          (Printf.sprintf "track %d: monotone ts" tid)
          true
          (e.ts >= !last_ts);
        last_ts := e.ts
      end;
      match e.ph with
      | "B" -> stack := e.name :: !stack
      | "E" -> (
          match !stack with
          | top :: rest ->
              Alcotest.(check string)
                (Printf.sprintf "track %d: E closes innermost B" tid)
                top e.name;
              stack := rest
          | [] -> Alcotest.failf "track %d: E %s with empty stack" tid e.name)
      | "i" | "M" -> ()
      | ph -> Alcotest.failf "track %d: unexpected ph %S" tid ph)
    evs;
  Alcotest.(check (list string))
    (Printf.sprintf "track %d: balanced" tid)
    [] !stack

let tracks_of evs =
  let tids = List.sort_uniq compare (List.map (fun e -> e.tid) evs) in
  List.map (fun tid -> (tid, List.filter (fun e -> e.tid = tid) evs)) tids

let test_trace_structure () =
  let prof = Prof.create () in
  let f = Option.get (Families.find "uniform") in
  ignore
    (Prof.with_profiler prof (fun () -> run_instrumented (f.build ~seed:1)));
  Alcotest.(check bool) "events recorded" true (Prof.events prof > 0);
  let evs = parse_events (Prof.to_chrome_string prof) in
  List.iter (fun (tid, evs) -> check_track tid evs) (tracks_of evs);
  (* the engine phases and the ranking hot path must all be present *)
  let names = List.map (fun e -> e.name) evs in
  List.iter
    (fun expected ->
      Alcotest.(check bool) (expected ^ " span present") true
        (List.mem expected names))
    [
      "engine.run";
      "engine.round";
      "engine.drop";
      "engine.arrival";
      "engine.reconfigure";
      "engine.execute";
      "eligibility.begin_round";
      "ranking.index.build";
      "ranking.query";
    ]

let test_end_events_carry_alloc_args () =
  let prof = Prof.create () in
  ignore (Prof.with_profiler prof (fun () -> run_instrumented (small_instance ())));
  let doc = Json.parse_exn (Prof.to_chrome_string prof) in
  let events =
    Result.get_ok (Json.to_list (Option.get (Json.member "traceEvents" doc)))
  in
  let checked = ref 0 in
  List.iter
    (fun e ->
      match Json.member "ph" e with
      | Some (Json.String "E") ->
          let args = Option.get (Json.member "args" e) in
          List.iter
            (fun f ->
              match Json.member f args with
              | Some v ->
                  Alcotest.(check bool) (f ^ " >= 0") true
                    (Result.get_ok (Json.to_float v) >= 0.)
              | None -> Alcotest.failf "E event without args.%s" f)
            [ "minor_words"; "promoted_words"; "major_words" ];
          incr checked
      | _ -> ())
    events;
  Alcotest.(check bool) "some E events checked" true (!checked > 0)

(* A profile keeps the allocation counters of every span boundary.  A
   long run of samples under a tiny minor heap, so that minor
   collections land between and inside the samples, must neither abort
   the process nor lose or corrupt a sample.  ([Gc.counters] fails this
   under OCaml 5.1: its result floats can be left dangling.) *)
let test_long_sampling_run () =
  let spans = 20_000 in
  let prof = Prof.create () in
  let old = Gc.get () in
  Gc.set { old with minor_heap_size = 4096 };
  Fun.protect ~finally:(fun () -> Gc.set old) (fun () ->
      Prof.with_profiler prof (fun () ->
          for i = 1 to spans do
            Prof.enter "sample";
            ignore (Sys.opaque_identity (List.init (i land 15) Fun.id));
            Prof.leave "sample"
          done));
  Alcotest.(check int) "every boundary kept" (2 * spans) (Prof.events prof);
  let ends =
    List.filter (fun e -> e.ph = "E") (parse_events (Prof.to_chrome_string prof))
  in
  Alcotest.(check int) "every span closed" spans (List.length ends)

let test_unbalanced_and_inactive_sites () =
  (* leave with nothing open is ignored; a mislabelled leave still
     closes the innermost span under its real name *)
  Prof.leave "no-profiler-attached";
  let prof = Prof.create () in
  Prof.with_profiler prof (fun () ->
      Alcotest.(check bool) "active inside" true (Prof.active ());
      Prof.leave "nothing-open";
      Prof.enter "outer";
      Prof.enter "inner";
      Prof.leave "mislabelled";
      Prof.instant "marker";
      Prof.leave "outer");
  Alcotest.(check bool) "inactive outside" false (Prof.active ());
  let evs =
    List.filter (fun e -> e.ph <> "M")
      (parse_events (Prof.to_chrome_string prof))
  in
  Alcotest.(check (list string))
    "event sequence" [ "outer"; "inner"; "inner"; "marker"; "outer" ]
    (List.map (fun e -> e.name) evs);
  Alcotest.(check (list string))
    "phases" [ "B"; "B"; "E"; "i"; "E" ]
    (List.map (fun e -> e.ph) evs)

let test_exception_closes_open_spans () =
  let prof = Prof.create () in
  (try
     Prof.with_profiler prof (fun () ->
         Prof.enter "doomed";
         Prof.enter "deeper";
         failwith "boom")
   with Failure _ -> ());
  let evs = parse_events (Prof.to_chrome_string prof) in
  List.iter (fun (tid, evs) -> check_track tid evs) (tracks_of evs)

(* regression: the ranking hot-path queries guard their enter/leave pair
   by hand (no closure); a query whose [exclude] callback raises must
   close "ranking.query" on the exception path itself, not lean on the
   export-time cleanup of leaked spans *)
let test_raising_query_leaves_stack_balanced () =
  let prof = Prof.create () in
  let instance = small_instance () in
  Prof.with_profiler prof (fun () ->
      let elig = Eligibility.create instance in
      let pending = Pending.create ~num_colors:instance.num_colors in
      let view =
        {
          Policy.round = 0;
          mini_round = 0;
          arrivals = Batch.of_list [ (0, 2); (1, 1) ];
          dropped = Batch.create ();
          cache = [||];
          pending;
        }
      in
      Eligibility.begin_round elig ~view ~in_cache:(fun _ -> false);
      let index = Ranking.Index.lazily elig ~delay:instance.delay in
      let idx = index pending in
      let out = Array.make 4 0 in
      (try
         ignore
           (Ranking.Index.ranked_prefix_excluding_into idx ~k:2 ~excluded:0
              ~exclude:(fun _ -> failwith "boom")
              ~out)
       with Failure _ -> ());
      Prof.span "probe" (fun () -> ()));
  let evs = parse_events (Prof.to_chrome_string prof) in
  List.iter (fun (tid, evs) -> check_track tid evs) (tracks_of evs);
  (* chronological event order: the query's E precedes the probe's B,
     i.e. the span was closed by the raising query, not at export *)
  let rec index_of p i = function
    | [] -> Alcotest.fail "expected event missing"
    | e :: rest -> if p e then i else index_of p (i + 1) rest
  in
  let query_end =
    index_of (fun e -> e.ph = "E" && e.name = "ranking.query") 0 evs
  in
  let probe_begin =
    index_of (fun e -> e.ph = "B" && e.name = "probe") 0 evs
  in
  Alcotest.(check bool) "query closed before probe opened" true
    (query_end < probe_begin)

(* ------------------------------------------------------------------ *)
(* Multi-domain tracks                                                 *)
(* ------------------------------------------------------------------ *)

(* spawned domains inherit the attachment and record onto their own
   tracks — deterministically: each Domain.spawn below records, so the
   trace must carry exactly parent + 3 child tracks *)
let test_spawned_domains_get_own_tracks () =
  let prof = Prof.create () in
  Prof.with_profiler prof (fun () ->
      Prof.span "parent" (fun () ->
          let children =
            List.init 3 (fun i ->
                Domain.spawn (fun () ->
                    Prof.span (Printf.sprintf "child-%d" i) (fun () -> ())))
          in
          List.iter Domain.join children));
  let evs = parse_events (Prof.to_chrome_string prof) in
  let tracks = tracks_of evs in
  List.iter (fun (tid, evs) -> check_track tid evs) tracks;
  Alcotest.(check int) "parent + 3 child tracks" 4 (List.length tracks);
  (* every track announces itself with thread_name metadata *)
  List.iter
    (fun (tid, evs) ->
      Alcotest.(check bool)
        (Printf.sprintf "track %d has thread_name" tid)
        true
        (List.exists (fun e -> e.ph = "M" && e.name = "thread_name") evs))
    tracks;
  (* each child span lives on a track of its own, not the parent's *)
  let track_of name =
    match List.find_opt (fun e -> e.name = name && e.ph = "B") evs with
    | Some e -> e.tid
    | None -> Alcotest.failf "span %s not recorded" name
  in
  let parent_tid = track_of "parent" in
  let child_tids = List.init 3 (fun i -> track_of (Printf.sprintf "child-%d" i)) in
  List.iter
    (fun tid ->
      Alcotest.(check bool) "child off the parent track" true (tid <> parent_tid))
    child_tids;
  Alcotest.(check int) "children on distinct tracks" 3
    (List.length (List.sort_uniq compare child_tids))

(* Pool workers run under the same inheritance; with trivial items the
   caller may steal everything, so assert completeness (every span
   recorded somewhere, all tracks well-formed), not the track count *)
let test_pool_workers_record_all_spans () =
  let prof = Prof.create () in
  let results =
    Prof.with_profiler prof (fun () ->
        Rrs_parallel.Pool.map ~domains:4
          (fun i ->
            Prof.span (Printf.sprintf "work-%d" i) (fun () ->
                Unix.sleepf 0.002;
                i * i))
          [ 0; 1; 2; 3; 4; 5; 6; 7 ])
  in
  Alcotest.(check (list int)) "pool result" [ 0; 1; 4; 9; 16; 25; 36; 49 ]
    results;
  let evs = parse_events (Prof.to_chrome_string prof) in
  List.iter (fun (tid, evs) -> check_track tid evs) (tracks_of evs);
  let names = List.map (fun e -> e.name) evs in
  for i = 0 to 7 do
    Alcotest.(check bool)
      (Printf.sprintf "work-%d recorded" i)
      true
      (List.mem (Printf.sprintf "work-%d" i) names)
  done

(* ------------------------------------------------------------------ *)
(* Non-perturbation                                                    *)
(* ------------------------------------------------------------------ *)

(* The differential-oracle harness, third axis: for every policy of the
   ΔLRU/EDF family, profiled and unprofiled runs must agree on the full
   Engine.result — cost, counters, per-color arrays, final cache and
   the complete recorded schedule. *)
let test_profiler_does_not_perturb_decisions () =
  let policies : (string * Policy.factory) list =
    [
      ("dlru", Delta_lru.policy);
      ("edf", Edf_policy.policy);
      ("dlru-edf", Lru_edf.policy);
    ]
  in
  let instances =
    small_instance ()
    :: List.map
         (fun id -> (Option.get (Families.find id)).Families.build ~seed:1)
         [ "uniform"; "bursty" ]
  in
  List.iter
    (fun instance ->
      List.iter
        (fun (pname, factory) ->
          let run () =
            let events = Rrs_obs.Sink.memory () in
            let r =
              Engine.run (Engine.config ~n:8 ~sink:events ()) instance factory
            in
            (r, Schedule.of_events ~n:8 ~mini_rounds:1 (Rrs_obs.Sink.events events))
          in
          let plain = run () in
          let profiled =
            Prof.with_profiler (Prof.create ()) (fun () -> run ())
          in
          Alcotest.(check bool)
            (Printf.sprintf "%s/%s identical under profiling" pname
               instance.Instance.name)
            true (plain = profiled))
        policies)
    instances

let () =
  Alcotest.run "prof"
    [
      ( "trace",
        [
          Alcotest.test_case "chrome structure" `Quick test_trace_structure;
          Alcotest.test_case "alloc args on E" `Quick
            test_end_events_carry_alloc_args;
          Alcotest.test_case "unbalanced sites" `Quick
            test_unbalanced_and_inactive_sites;
          Alcotest.test_case "exception closes spans" `Quick
            test_exception_closes_open_spans;
          Alcotest.test_case "raising query stays balanced" `Quick
            test_raising_query_leaves_stack_balanced;
          Alcotest.test_case "long sampling run" `Quick test_long_sampling_run;
        ] );
      ( "domains",
        [
          Alcotest.test_case "spawned domain tracks" `Quick
            test_spawned_domains_get_own_tracks;
          Alcotest.test_case "pool spans complete" `Quick
            test_pool_workers_record_all_spans;
        ] );
      ( "oracle",
        [
          Alcotest.test_case "non-perturbation" `Quick
            test_profiler_does_not_perturb_decisions;
        ] );
    ]
