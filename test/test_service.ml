(* The service layer's contracts:

   - the protocol parser is total and round-trips its canonical form;
   - a streamed Session is decision-identical to the batch engine on
     every family and through both reductions (schedule and all);
   - Snapshot serialize -> deserialize is an identity on reachable
     states (QCheck over random command sequences);
   - a session killed at round k (journal left behind, no graceful
     shutdown) and restored by a fresh server produces the batch run's
     exact accounting — the load-bearing kill/restore differential;
   - an injected command fault is contained by the transport to one
     [err] reply, and the session converges to the fault-free run's
     state. *)

open Rrs_core
module Families = Rrs_workload.Families
module Stream = Rrs_workload.Arrival_stream
module Protocol = Rrs_service.Protocol
module Snapshot = Rrs_service.Snapshot
module Journal = Rrs_service.Journal
module Server = Rrs_service.Server
module Transport = Rrs_service.Transport
module Session = Engine.Session
module Torture = Rrs_torture.Torture

(* ---- protocol ----------------------------------------------------- *)

let test_protocol_parse () =
  let ok line = function
    | Ok (Some cmd) -> cmd
    | Ok None -> Alcotest.failf "%S parsed to nothing" line
    | Error e -> Alcotest.failf "%S refused: %s" line e
  in
  let check_cmd line expected =
    Alcotest.(check bool) (Printf.sprintf "parse %S" line) true
      (ok line (Protocol.parse line) = expected)
  in
  check_cmd "submit 3 7" (Protocol.Submit { round = None; color = 3; count = 7 });
  check_cmd "submit 12 3 7"
    (Protocol.Submit { round = Some 12; color = 3; count = 7 });
  check_cmd "step" (Protocol.Step 1);
  check_cmd "step 40" (Protocol.Step 40);
  check_cmd "  state  " Protocol.State;
  check_cmd "checkpoint" Protocol.Checkpoint;
  check_cmd "quit" Protocol.Quit;
  check_cmd "reconfigure delta=5 n=12 delay=0:4,2:16"
    (Protocol.Reconfigure
       { delta = Some 5; n = Some 12; delay = [ (0, 4); (2, 16) ] });
  (* blanks and comments parse to nothing *)
  Alcotest.(check bool) "blank" true (Protocol.parse "   " = Ok None);
  Alcotest.(check bool) "comment" true (Protocol.parse "# hi" = Ok None);
  Alcotest.(check bool)
    "trailing comment" true
    (Protocol.parse "step 2 # two" = Ok (Some (Protocol.Step 2)));
  (* errors are typed strings, never raises *)
  List.iter
    (fun line ->
      match Protocol.parse line with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%S should not parse" line)
    [
      "submit"; "submit x 3"; "step 0"; "step -1"; "frobnicate"; "state 1";
      "reconfigure"; "reconfigure speed=9"; "reconfigure delay=0";
    ]

let test_protocol_roundtrip () =
  List.iter
    (fun cmd ->
      match Protocol.parse (Protocol.command_to_string cmd) with
      | Ok (Some cmd') ->
          Alcotest.(check bool)
            (Protocol.command_to_string cmd)
            true (cmd = cmd')
      | _ ->
          Alcotest.failf "canonical form %S did not round-trip"
            (Protocol.command_to_string cmd))
    [
      Protocol.Submit { round = None; color = 1; count = 3 };
      Protocol.Submit { round = Some 9; color = 0; count = 1 };
      Protocol.Step 1;
      Protocol.Step 17;
      Protocol.State;
      Protocol.Reconfigure { delta = Some 2; n = None; delay = [ (1, 8) ] };
      Protocol.Checkpoint;
      Protocol.Quit;
      Protocol.Help;
    ]

(* The formatter [Protocol.add_command] replaced, kept as the oracle of
   its bytes: one [String.concat]/[Printf] string per command. *)
let oracle_command_to_string = function
  | Protocol.Submit { round = None; color; count } ->
      String.concat " " [ "submit"; string_of_int color; string_of_int count ]
  | Protocol.Submit { round = Some round; color; count } ->
      String.concat " "
        [
          "submit"; string_of_int round; string_of_int color;
          string_of_int count;
        ]
  | Protocol.Step 1 -> "step"
  | Protocol.Step k -> "step " ^ string_of_int k
  | Protocol.State -> "state"
  | Protocol.Reconfigure { delta; n; delay } ->
      let parts =
        (match delta with
        | Some d -> [ Printf.sprintf "delta=%d" d ]
        | None -> [])
        @ (match n with Some v -> [ Printf.sprintf "n=%d" v ] | None -> [])
        @
        match delay with
        | [] -> []
        | d ->
            [
              "delay="
              ^ String.concat ","
                  (List.map (fun (c, b) -> Printf.sprintf "%d:%d" c b) d);
            ]
      in
      String.concat " " ("reconfigure" :: parts)
  | Protocol.Checkpoint -> "checkpoint"
  | Protocol.Open name -> "open " ^ name
  | Protocol.Attach name -> "attach " ^ name
  | Protocol.Sessions -> "sessions"
  | Protocol.Shutdown -> "shutdown"
  | Protocol.Quit -> "quit"
  | Protocol.Help -> "help"

(* every command kind, with ints over the whole range (negatives and
   the extremes included: the formatter does not judge them) *)
let command_gen =
  QCheck.Gen.(
    let num =
      oneof [ small_signed_int; int; oneofl [ min_int; max_int; 0; 1; -1 ] ]
    in
    let name =
      string_size ~gen:(oneofl [ 'a'; 'Z'; '0'; '_'; '-'; '.' ]) (1 -- 12)
    in
    oneof
      [
        map3
          (fun round color count -> Protocol.Submit { round; color; count })
          (opt num) num num;
        map (fun k -> Protocol.Step k) (oneof [ return 1; num ]);
        map3
          (fun delta n delay -> Protocol.Reconfigure { delta; n; delay })
          (opt num) (opt num)
          (list_size (0 -- 5) (pair num num));
        map (fun n -> Protocol.Open n) name;
        map (fun n -> Protocol.Attach n) name;
        oneofl
          Protocol.
            [ State; Checkpoint; Sessions; Shutdown; Quit; Help ];
      ])

let prop_add_command_oracle =
  QCheck.Test.make ~count:2000 ~name:"add_command writes the oracle's bytes"
    (QCheck.make ~print:oracle_command_to_string command_gen)
    (fun cmd ->
      let want = oracle_command_to_string cmd in
      (* appended after what the writer holds, growing it from 16 bytes *)
      let w = Wire.writer ~capacity:1 () in
      Wire.add_string w "> ";
      Protocol.add_command w cmd;
      Wire.contents w = "> " ^ want && Protocol.command_to_string cmd = want)

(* ---- streamed session == batch engine ----------------------------- *)

(* Both sides record their schedule off the engine's events and return
   it with the result, so the comparisons cover the full schedule. *)
let plain_cfg ~n ~sink = Engine.config ~n ~sink ()

let recording cfg_of ~n run =
  let events = Rrs_obs.Sink.memory () in
  let r = run (cfg_of ~n ~sink:events) in
  (r, Schedule.of_events ~n ~mini_rounds:1 (Rrs_obs.Sink.events events))

let drive_stream ?(cfg_of = plain_cfg) instance factory ~n =
  recording cfg_of ~n @@ fun cfg ->
  let session =
    Session.create cfg ~delta:instance.Instance.delta
      ~delay:instance.Instance.delay factory
  in
  let stream = Stream.of_instance instance in
  (* feed each round's batch just before stepping it: the live pattern *)
  for round = 0 to instance.Instance.horizon do
    Stream.feed_session stream session ~upto:round;
    Session.step session
  done;
  Session.finish ~expect_drained:true session

let batch ?(cfg_of = plain_cfg) instance factory ~n =
  recording cfg_of ~n (fun cfg -> Engine.run cfg instance factory)

let check_stream_matches_batch label instance =
  let n = 8 in
  let streamed = drive_stream instance Lru_edf.policy ~n in
  let batched = batch instance Lru_edf.policy ~n in
  Alcotest.(check bool)
    (Printf.sprintf "%s streamed == batch" label)
    true (streamed = batched)

let test_stream_families () =
  List.iter
    (fun id ->
      let f = Option.get (Families.find id) in
      check_stream_matches_batch id (f.build ~seed:1))
    (Families.ids ())

(* Feeding everything up front (the whole future in the buckets) must
   make the same schedule as feeding just in time. *)
let test_stream_feed_order () =
  let f = Option.get (Families.find "bursty") in
  let instance = f.build ~seed:3 in
  let n = 8 in
  let eager =
    recording plain_cfg ~n @@ fun cfg ->
    let session =
      Session.create cfg ~delta:instance.Instance.delta
        ~delay:instance.Instance.delay Lru_edf.policy
    in
    let stream = Stream.of_instance instance in
    Stream.feed_session stream session ~upto:instance.Instance.horizon;
    for _ = 0 to instance.Instance.horizon do
      Session.step session
    done;
    Session.finish ~expect_drained:true session
  in
  Alcotest.(check bool) "eager == batch" true
    (eager = batch instance Lru_edf.policy ~n)

(* Both reductions: the streamed engine must price a reduced instance
   exactly like the batch engine does, projection included. *)
let test_stream_reductions () =
  let n = 8 in
  (* Distribute: oversized batches -> subcolors + cost projection *)
  let oversized = (Option.get (Families.find "oversized")).build ~seed:1 in
  let mapping = Distribute.transform oversized in
  let cfg_of ~n ~sink =
    Engine.config ~n ~sink ~cost_projection:(Distribute.project mapping) ()
  in
  Alcotest.(check bool) "distribute streamed == batch" true
    (drive_stream ~cfg_of mapping.Distribute.sub_instance Lru_edf.policy ~n
    = batch ~cfg_of mapping.Distribute.sub_instance Lru_edf.policy ~n);
  (* VarBatch: arbitrary arrivals -> batched (then batched -> engine) *)
  let unbatched = (Option.get (Families.find "unbatched")).build ~seed:1 in
  let vb = Var_batch.transform unbatched in
  check_stream_matches_batch "varbatch" vb;
  (* and the composition the pipeline actually runs *)
  let mapping2 = Distribute.transform vb in
  let cfg_of2 ~n ~sink =
    Engine.config ~n ~sink ~cost_projection:(Distribute.project mapping2) ()
  in
  Alcotest.(check bool) "varbatch+distribute streamed == batch" true
    (drive_stream ~cfg_of:cfg_of2 mapping2.Distribute.sub_instance
       Lru_edf.policy ~n
    = batch ~cfg_of:cfg_of2 mapping2.Distribute.sub_instance Lru_edf.policy ~n)

(* ---- session guards ----------------------------------------------- *)

let fresh_session ?(n = 4) ?(delta = 2) ?(delay = [| 4; 4; 4 |]) () =
  Session.create (Engine.config ~n ()) ~delta ~delay Edf_policy.seq_policy

let test_feed_guards () =
  let s = fresh_session () in
  let expect name err = function
    | Error e when e = err -> ()
    | Error _ -> Alcotest.failf "%s: wrong error" name
    | Ok () -> Alcotest.failf "%s: accepted" name
  in
  expect "color range"
    (`Color_out_of_range (3, 3))
    (Session.feed s ~round:0 ~color:3 ~count:1);
  expect "count" (`Count_not_positive 0) (Session.feed s ~round:0 ~color:0 ~count:0);
  Alcotest.(check bool) "ok feed" true
    (Session.feed s ~round:2 ~color:0 ~count:1 = Ok ());
  Session.step s;
  Session.step s;
  expect "past round" (`Round_in_past (1, 2))
    (Session.feed s ~round:1 ~color:0 ~count:1);
  (* round + delay must stay a packable rank-key deadline *)
  let last = Packed.max_deadline - 5 in
  expect "deadline limit"
    (`Deadline_beyond_limit (last + 1, 0, Packed.max_deadline))
    (Session.feed s ~round:(last + 1) ~color:0 ~count:1);
  Alcotest.(check bool) "last feedable round" true
    (Session.feed s ~round:last ~color:0 ~count:1 = Ok ());
  (* a preloaded session takes no feed *)
  let instance =
    Instance.create ~delta:2 ~delay:[| 4 |]
      ~arrivals:[ { Types.round = 0; color = 0; count = 2 } ]
      ()
  in
  let p =
    Session.of_instance (Engine.config ~n:2 ()) instance
      (Edf_policy.seq_policy instance ~n:2)
  in
  expect "preloaded" `Preloaded (Session.feed p ~round:0 ~color:0 ~count:1);
  (* and cannot re-derive a policy for reconfiguration *)
  (match Session.reconfigure p ~n:4 () with
  | Error `No_factory -> ()
  | _ -> Alcotest.fail "of_instance reconfigure should need a factory")

(* A session whose round is [round]: a fresh session's saved state with
   the round field (the second int of Session.save) replaced. *)
let session_at_round ~round =
  let cfg = Engine.config ~n:4 () in
  let fresh = Session.create cfg ~delta:2 ~delay:[| 4; 8 |] Lru_edf.policy in
  let w = Wire.writer () in
  Session.save fresh w;
  let saved = Wire.contents w in
  let r = Wire.reader saved ~pos:0 ~stop:(String.length saved) in
  let version = Wire.int r in
  ignore (Wire.int r);
  (* the rest starts where the round ended: re-encode the two ints to
     find that offset *)
  let head = Wire.writer () in
  Wire.add_int head version;
  Wire.add_int head 0;
  let rest =
    String.sub saved (Wire.length head) (String.length saved - Wire.length head)
  in
  let spliced = Wire.writer () in
  Wire.add_int spliced version;
  Wire.add_int spliced round;
  Wire.add_string spliced rest;
  let bytes = Wire.contents spliced in
  match
    Session.load cfg Lru_edf.policy
      (Wire.reader bytes ~pos:0 ~stop:(String.length bytes))
  with
  | Ok s -> s
  | Error msg -> Alcotest.failf "load at round %d: %s" round msg

let save_bytes s =
  let w = Wire.writer () in
  Session.save s w;
  Wire.contents w

(* A step that would execute a round whose deadlines pass the packed
   rank-key field is refused before anything mutates: the session's
   saved state is unchanged and it can still step up to the limit. *)
let test_round_limit () =
  let last = Packed.max_deadline - 8 - 1 in
  let s = session_at_round ~round:(last - 1) in
  let before = save_bytes s in
  (match Session.check_step s ~rounds:3 with
  | Error (`Round_limit (round, limit)) ->
      Alcotest.(check (pair int int)) "first refused round, last round"
        (last + 1, last) (round, limit)
  | _ -> Alcotest.fail "a step past the limit was accepted");
  Alcotest.(check string) "check mutates nothing" before (save_bytes s);
  Alcotest.(check bool) "feed the last round" true
    (Session.feed s ~round:last ~color:1 ~count:3 = Ok ());
  Session.step s;
  Session.step s;
  Alcotest.(check int) "stepped to the limit" (last + 1) (Session.round s);
  let at_limit = save_bytes s in
  (match Session.step s with
  | () -> Alcotest.fail "step past the limit ran"
  | exception Invalid_argument _ -> ());
  Alcotest.(check string) "refused step mutates nothing" at_limit (save_bytes s)

let test_reconfigure_guards () =
  let s = fresh_session () in
  let expect name err = function
    | Error e when e = err -> ()
    | Error _ -> Alcotest.failf "%s: wrong error" name
    | Ok () -> Alcotest.failf "%s: accepted" name
  in
  expect "bad delta" (`Bad_delta 0) (Session.reconfigure s ~delta:0 ());
  expect "bad n" (`Bad_n 0) (Session.reconfigure s ~n:0 ());
  expect "unknown color" (`Unknown_color 7)
    (Session.reconfigure s ~delay:[ (7, 4) ] ());
  expect "bad delay" (`Bad_delay (0, 0)) (Session.reconfigure s ~delay:[ (0, 0) ] ());
  (* shrinking a delay bound under pending jobs would reorder deadlines *)
  Alcotest.(check bool) "feed" true
    (Session.feed s ~round:0 ~color:1 ~count:2 = Ok ());
  Session.step s;
  expect "delay shrink" (`Delay_reduced_while_pending 1)
    (Session.reconfigure s ~delay:[ (1, 2) ] ());
  (* growing it is fine; shrinking an idle color is fine *)
  Alcotest.(check bool) "grow" true
    (Session.reconfigure s ~delay:[ (1, 9) ] () = Ok ());
  Alcotest.(check bool) "shrink idle" true
    (Session.reconfigure s ~delay:[ (0, 2) ] () = Ok ());
  (* capacity changes preserve the cache prefix without a charge *)
  let before = Session.reconfigurations s in
  Alcotest.(check bool) "grow n" true (Session.reconfigure s ~n:8 () = Ok ());
  Alcotest.(check int) "no charge" before (Session.reconfigurations s);
  Alcotest.(check int) "n grew" 8 (Session.n s);
  Session.step s;
  ignore (Session.finish s)

let test_scale_guard () =
  let uniform = Option.get (Families.find "uniform") in
  (match Families.scale_to uniform ~num_colors:64 ~seed:1 with
  | Ok i -> Alcotest.(check int) "scaled" 64 i.Instance.num_colors
  | Error _ -> Alcotest.fail "64 colors should scale");
  (match Families.scale_to uniform ~num_colors:(Packed.max_colors + 1) ~seed:1 with
  | Error (Families.Too_many_colors { requested; max }) ->
      Alcotest.(check int) "requested" (Packed.max_colors + 1) requested;
      Alcotest.(check int) "max" Packed.max_colors max
  | _ -> Alcotest.fail "over-sized universe must be refused");
  (match Families.scale_to uniform ~num_colors:0 ~seed:1 with
  | Error (Families.Not_positive 0) -> ()
  | _ -> Alcotest.fail "0 colors must be refused");
  let datacenter = Option.get (Families.find "datacenter") in
  match Families.scale_to datacenter ~num_colors:64 ~seed:1 with
  | Error (Families.Fixed_cast "datacenter") -> ()
  | _ -> Alcotest.fail "scenario families must refuse scaling"

(* ---- snapshot round-trip (QCheck) --------------------------------- *)

(* A reachable state: whatever a random command sequence leaves behind. *)
let session_ops_gen =
  let open QCheck.Gen in
  let* num_colors = int_range 1 5 in
  let* delta = int_range 1 4 in
  let* delays = array_size (return num_colors) (int_range 1 10) in
  let* ops =
    list_size (int_range 0 30)
      (frequency
         [
           ( 4,
             let* ahead = int_range 0 5 in
             let* color = int_range 0 (num_colors - 1) in
             let* count = int_range 1 6 in
             return (`Submit (ahead, color, count)) );
           (3, let* k = int_range 1 6 in
               return (`Step k));
           ( 1,
             let* d = int_range 1 4 in
             return (`Reconfig_delta d) );
           ( 1,
             let* color = int_range 0 (num_colors - 1) in
             let* bound = int_range 1 10 in
             return (`Reconfig_delay (color, bound)) );
         ])
  in
  return (num_colors, delta, delays, ops)

let apply_ops (num_colors, delta, delays, ops) =
  ignore num_colors;
  let session =
    Session.create (Engine.config ~n:4 ()) ~delta ~delay:delays
      Edf_policy.seq_policy
  in
  let applied = ref 0 in
  List.iter
    (fun op ->
      let outcome =
        match op with
        | `Submit (ahead, color, count) ->
            Result.is_ok
              (Session.feed session
                 ~round:(Session.round session + ahead)
                 ~color ~count)
        | `Step k ->
            for _ = 1 to k do
              Session.step session
            done;
            true
        | `Reconfig_delta d ->
            Result.is_ok (Session.reconfigure session ~delta:d ())
        | `Reconfig_delay (color, bound) ->
            Result.is_ok (Session.reconfigure session ~delay:[ (color, bound) ] ())
      in
      if outcome then incr applied)
    ops;
  Snapshot.of_session ~ops:!applied session

let prop_snapshot_roundtrip =
  QCheck.Test.make ~count:200
    ~name:"snapshot serialize/deserialize is an identity on reachable states"
    (QCheck.make session_ops_gen)
    (fun setup ->
      let snapshot = apply_ops setup in
      match Torture.snapshot_of_line (Snapshot.to_line snapshot) with
      | Ok snapshot' -> Snapshot.equal snapshot snapshot'
      | Error e -> QCheck.Test.fail_reportf "did not parse back: %s" e)

(* The reference encoding [Snapshot.to_line] replaced: the canonical
   Json printer over the object tree. *)
let snapshot_to_json (t : Snapshot.t) =
  let module Json = Rrs_obs.Json in
  let int_array a = Json.List (Array.to_list a |> List.map (fun v -> Json.Int v)) in
  Json.Assoc
    [
      ("type", Json.String "serve_state");
      ("version", Json.Int t.version);
      ("ops", Json.Int t.ops);
      ("round", Json.Int t.round);
      ("n", Json.Int t.n);
      ("delta", Json.Int t.delta);
      ("delay", int_array t.delay);
      ("reconfigurations", Json.Int t.reconfigurations);
      ("reconfig_cost", Json.Int t.reconfig_cost);
      ("executed", Json.Int t.executed);
      ("dropped", Json.Int t.dropped);
      ("pending_jobs", Json.Int t.pending_jobs);
      ("future_arrivals", Json.Int t.future_arrivals);
      ("cache", int_array t.cache);
    ]

let prop_snapshot_line_is_json =
  QCheck.Test.make ~count:200
    ~name:"snapshot line = the canonical Json printer's bytes"
    (QCheck.make session_ops_gen)
    (fun setup ->
      let s = apply_ops setup in
      (* extreme values too: negative fields and empty arrays *)
      let odd = { s with Snapshot.ops = min_int; dropped = -1; cache = [||] } in
      List.for_all
        (fun s ->
          Snapshot.to_line s = Rrs_obs.Json.to_string (snapshot_to_json s))
        [ s; odd ])

(* ---- kill at round k / restore ------------------------------------ *)

let temp_dir =
  let counter = ref 0 in
  fun name ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "rrs_service_%s_%d_%d" name (Unix.getpid ()) !counter)
    in
    if not (Sys.file_exists dir) then Unix.mkdir dir 0o755;
    dir

let rm_rf dir =
  if Sys.file_exists dir then begin
    Array.iter
      (fun f -> Sys.remove (Filename.concat dir f))
      (Sys.readdir dir);
    Unix.rmdir dir
  end

(* Serve [script] over the stdio transport, as `rrs serve < script`
   does, capturing output lines and the CLI's exit code (0 served,
   1 refused restore, 2 bad configuration). *)
let run_server config script =
  let in_path = Filename.temp_file "serve_in" ".txt" in
  let out_path = Filename.temp_file "serve_out" ".txt" in
  Out_channel.with_open_text in_path (fun oc -> output_string oc script);
  let fd_in = Unix.openfile in_path [ Unix.O_RDONLY ] 0 in
  let fd_out = Unix.openfile out_path [ Unix.O_WRONLY; Unix.O_TRUNC ] 0 in
  let code =
    match Transport.run config (Transport.Stdio (fd_in, fd_out)) with
    | Ok _ -> 0
    | Error (`Fatal _) -> 1
    | Error (`Config _) -> 2
  in
  Unix.close fd_in;
  Unix.close fd_out;
  let output = In_channel.with_open_text out_path In_channel.input_lines in
  Sys.remove in_path;
  Sys.remove out_path;
  (code, output)

(* The same limits over the protocol: the submit is refused with a
   typed reply, and a step that would cross the limit is refused whole
   — the session stays at round 0, unwedged, with the one acked op. *)
let test_deadline_limit_served () =
  let code, output =
    run_server Server.default_config
      "submit 8388606 0 1
submit 8388599 0 1
step 8388607
state
step 2
"
  in
  Alcotest.(check int) "served" 0 code;
  let starts prefix line =
    String.length line >= String.length prefix
    && String.sub line 0 (String.length prefix) = prefix
  in
  let nth i = List.nth output i in
  Alcotest.(check bool) "submit refused" true (starts "err submit: " (nth 1));
  Alcotest.(check bool) "in-range submit acked" true (starts "ok submitted" (nth 2));
  Alcotest.(check bool) "step refused" true (starts "err step: " (nth 3));
  Alcotest.(check bool) "refusal names the limit" true
    (List.mem
       (Printf.sprintf "%d)" Packed.max_deadline)
       (String.split_on_char ' ' (nth 3)));
  Alcotest.(check bool) "nothing stepped" true
    (starts {|{"type":"serve_state","version":1,"ops":1,"round":0,|} (nth 4));
  Alcotest.(check string) "session still steps" "ok stepped 2 rounds to round 2"
    (nth 5)

let submit_ops instance =
  let stream = Stream.of_instance instance in
  let rec collect acc =
    match Stream.next stream with
    | None -> List.rev acc
    | Some (round, batch) ->
        collect
          (List.rev_append
             (List.map
                (fun (color, count) -> Journal.Submit { round; color; count })
                batch)
             acc)
  in
  collect []

(* Emulate a process killed at round [k]: write the journal a dying
   server leaves behind (header + ops, flushed per line, no checkpoint,
   no goodbye), then restore with a fresh server that finishes the
   stream, and compare its final accounting against the uninterrupted
   batch run. *)
let check_kill_restore label instance =
  let n = 8 in
  let horizon = instance.Instance.horizon in
  let k = max 1 ((horizon + 1) / 2) in
  let dir = temp_dir "kill" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let header =
    {
      Journal.policy = "dlru-edf";
      n;
      delta = instance.Instance.delta;
      delay = Array.copy instance.Instance.delay;
      mini_rounds = 1;
    }
  in
  let w = Journal.create dir header in
  List.iter (fun op -> Journal.append w op) (submit_ops instance);
  Journal.append w (Journal.Step k);
  Journal.close w;
  let config =
    {
      Server.default_config with
      policy = "dlru-edf";
      n;
      delta = instance.Instance.delta;
      delay = Array.copy instance.Instance.delay;
      checkpoint_dir = Some dir;
      checkpoint_every = 0;
    }
  in
  let script = Printf.sprintf "step %d\nquit\n" (horizon + 1 - k) in
  let code, output = run_server config script in
  Alcotest.(check int) (label ^ " restored exit") 0 code;
  (match output with
  | first :: _ ->
      if not (String.length first >= 11 && String.sub first 0 11 = "ok restored")
      then Alcotest.failf "%s: expected restore greeting, got %S" label first
  | [] -> Alcotest.failf "%s: no server output" label);
  let ckpt =
    In_channel.with_open_text
      (Filename.concat dir "checkpoint.json")
      In_channel.input_line
  in
  let snapshot =
    match Option.map Torture.snapshot_of_line ckpt with
    | Some (Ok s) -> s
    | _ -> Alcotest.failf "%s: unreadable final checkpoint" label
  in
  let batch = Engine.run (Engine.config ~n ()) instance Lru_edf.policy in
  Alcotest.(check int) (label ^ " rounds") (horizon + 1) snapshot.Snapshot.round;
  Alcotest.(check int) (label ^ " executed") batch.Engine.executed
    snapshot.Snapshot.executed;
  Alcotest.(check int) (label ^ " dropped") batch.Engine.dropped
    snapshot.Snapshot.dropped;
  Alcotest.(check int)
    (label ^ " recolorings")
    batch.Engine.reconfigurations snapshot.Snapshot.reconfigurations;
  Alcotest.(check int)
    (label ^ " reconfig cost")
    batch.Engine.cost.Cost.reconfig snapshot.Snapshot.reconfig_cost;
  Alcotest.(check bool)
    (label ^ " cache")
    true
    (snapshot.Snapshot.cache = batch.Engine.final_cache);
  Alcotest.(check int) (label ^ " drained") 0 snapshot.Snapshot.pending_jobs

let test_kill_restore_families () =
  List.iter
    (fun id ->
      let f = Option.get (Families.find id) in
      check_kill_restore id (f.build ~seed:1))
    (Families.ids ())

(* ---- contained command faults ------------------------------------ *)

(* The 6th command below is a [state] — no journal op.  The fault
   injected there is contained by the transport to that command's
   reply: the session is not wedged, the following commands run, and
   the final checkpoint equals the fault-free run's. *)
let test_command_fault () =
  let dir = temp_dir "fault" in
  let dir2 = temp_dir "clean" in
  Fun.protect
    ~finally:(fun () ->
      rm_rf dir;
      rm_rf dir2)
  @@ fun () ->
  let script =
    String.concat "\n"
      [
        "submit 0 0 5";
        "submit 0 1 3";
        "step 4";
        "submit 1 6";
        "step 2";
        "state";
        "step 4";
        "quit";
        "";
      ]
  in
  let config dir =
    {
      Server.default_config with
      n = 4;
      delta = 2;
      delay = Array.make 4 6;
      checkpoint_dir = Some dir;
      checkpoint_every = 2;
    }
  in
  let plan =
    Rrs_fault.plan ~sleep:ignore
      [ Rrs_fault.fail_on ~transient:true "serve.command" (Rrs_fault.Nth 6) ]
  in
  let code, output =
    Rrs_fault.with_plan plan (fun () -> run_server (config dir) script)
  in
  Alcotest.(check int) "faulted exit" 0 code;
  let prefix = "err transient fault injected at serve.command" in
  (* output line 0 is the greeting, so the 6th command's reply is line 6 *)
  Alcotest.(check bool) "the 6th command answers the fault" true
    (match List.nth_opt output 6 with
    | Some l ->
        String.length l >= String.length prefix
        && String.sub l 0 (String.length prefix) = prefix
    | None -> false);
  let clean_code, _ = run_server (config dir2) script in
  Alcotest.(check int) "clean exit" 0 clean_code;
  let load dir =
    match
      In_channel.with_open_text
        (Filename.concat dir "checkpoint.json")
        In_channel.input_line
    with
    | Some line -> (
        match Torture.snapshot_of_line line with
        | Ok s -> s
        | Error e -> Alcotest.failf "checkpoint: %s" e)
    | None -> Alcotest.fail "no checkpoint"
  in
  Alcotest.(check bool) "faulted run converged to the clean state" true
    (Snapshot.equal (load dir) (load dir2))

(* ---- memory boundedness (no per-round retention) ------------------ *)

let test_bounded_state () =
  (* a long stream at steady load: live words after the run must not
     scale with the number of rounds — no schedule, no history *)
  let delay = Array.make 4 8 in
  let run rounds =
    let session =
      Session.create (Engine.config ~n:4 ()) ~delta:2 ~delay
        Edf_policy.seq_policy
    in
    for round = 0 to rounds - 1 do
      ignore (Session.feed session ~round ~color:(round mod 4) ~count:2);
      Session.step session
    done;
    ignore (Session.finish session);
    Gc.full_major ();
    (Gc.stat ()).Gc.live_words
  in
  let short = run 500 in
  let long = run 20_000 in
  (* identical steady state: allow slack for GC accounting noise, but
     40x the rounds must not show up as retained words *)
  Alcotest.(check bool)
    (Printf.sprintf "live words flat (%d vs %d)" short long)
    true
    (long - short < 10_000)

(* The event stream prices a live Δ change: Σ over rounds of that
   round's charged recolorings × the Δ its Round_end carries is the
   session's reconfiguration cost. *)
let test_trace_prices_delta_changes () =
  let instance = (Option.get (Families.find "bursty")).build ~seed:1 in
  let events = Rrs_obs.Sink.memory () in
  let session =
    Session.create
      (Engine.config ~n:8 ~sink:events ())
      ~delta:instance.Instance.delta ~delay:instance.Instance.delay
      Lru_edf.policy
  in
  let stream = Stream.of_instance instance in
  for round = 0 to instance.Instance.horizon do
    if round mod 32 = 16 then
      Result.get_ok
        (Session.reconfigure session ~delta:(1 + (round / 32 mod 7)) ());
    Stream.feed_session stream session ~upto:round;
    Session.step session
  done;
  let charges = Hashtbl.create 64 and priced_at = Hashtbl.create 8 in
  let priced =
    List.fold_left
      (fun cost (e : Rrs_obs.Event.t) ->
        match e with
        | Reconfigure { round; _ } ->
            Hashtbl.replace charges round
              (1 + Option.value ~default:0 (Hashtbl.find_opt charges round));
            cost
        | Round_end { round; delta; _ } -> (
            match Hashtbl.find_opt charges round with
            | Some k ->
                Hashtbl.replace priced_at delta ();
                cost + (k * delta)
            | None -> cost)
        | _ -> cost)
      0 (Rrs_obs.Sink.events events)
  in
  Alcotest.(check bool) "recolorings charged at several Δ" true
    (Hashtbl.length priced_at >= 3);
  Alcotest.(check int) "Σ recolorings × Round_end.delta = reconfig cost"
    (Session.cost session).Cost.reconfig priced

(* A heartbeat whose files vanish mid-run counts the failed writes and
   keeps going: every step still commits exactly one round. *)
let test_heartbeat_write_failure () =
  let module Heartbeat = Rrs_obs.Heartbeat in
  let dir = temp_dir "hb_gone" in
  let path = Filename.concat dir "hb.jsonl" in
  let hb =
    Heartbeat.create ~every_rounds:4 ~path ~status_path:(path ^ ".status") ()
  in
  let session =
    Session.create
      (Engine.config ~n:4 ~sink:(Heartbeat.attach hb Rrs_obs.Sink.null) ())
      ~delta:2 ~delay:[| 4; 4; 4 |] Edf_policy.seq_policy
  in
  let step () =
    let round = Session.round session in
    ignore (Session.feed session ~round ~color:0 ~count:1);
    Session.step session
  in
  for _ = 1 to 5 do
    step ()
  done;
  Alcotest.(check int) "no failure yet" 0 (Heartbeat.write_errors hb);
  let beats_before = Heartbeat.beats hb in
  rm_rf dir;
  for k = 1 to 8 do
    let round = Session.round session and executed = Session.executed session in
    step ();
    Alcotest.(check int) (Printf.sprintf "step %d: one round" k) (round + 1)
      (Session.round session);
    Alcotest.(check int) (Printf.sprintf "step %d: one execution" k)
      (executed + 1) (Session.executed session)
  done;
  Alcotest.(check int) "rounds observed" 13 (Heartbeat.rounds_observed hb);
  let beats_after = Heartbeat.beats hb - beats_before in
  Alcotest.(check int) "two beats after the removal" 2 beats_after;
  Alcotest.(check int) "write errors: the stream and the status, per beat"
    (2 * beats_after) (Heartbeat.write_errors hb);
  let line = Rrs_obs.Json.parse_exn (Option.get (Heartbeat.last_line hb)) in
  Alcotest.(check bool) "the beat line reports them" true
    (Option.is_some (Rrs_obs.Json.member "write_errors" line));
  Heartbeat.finish hb

(* ---- protocol fuzz (QCheck) --------------------------------------- *)

(* the parser's totality contract: any byte string gets Ok/Error, never
   an exception, and anything it does accept re-parses from its
   canonical form to the same command *)
let parse_never_raises input =
  match Protocol.parse input with
  | Ok None | Error _ -> true
  | Ok (Some cmd) -> (
      let canonical = Protocol.command_to_string cmd in
      match Protocol.parse canonical with
      | Ok (Some cmd') -> cmd' = cmd
      | _ -> false)
  | exception e ->
      QCheck.Test.fail_reportf "parse raised %s on %S"
        (Printexc.to_string e) input

let prop_parse_arbitrary_bytes =
  let gen = QCheck.Gen.(string_size ~gen:char (0 -- 80)) in
  QCheck.Test.make ~count:2000 ~name:"parse is total on arbitrary bytes"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    parse_never_raises

(* The tokenizer [Protocol.parse] had before its single scan: cut at
   the first [#], [String.trim], split on spaces then on tabs, drop
   empty tokens.  Every line must parse as its re-joined tokens do. *)
let reference_tokens line =
  let line =
    match String.index_opt line '#' with
    | Some i -> String.sub line 0 i
    | None -> line
  in
  String.split_on_char ' ' (String.trim line)
  |> List.concat_map (String.split_on_char '\t')
  |> List.filter (fun t -> t <> "")

let prop_tokenizer_reference =
  let pieces =
    [ "submit"; "step"; "state"; "reconfigure"; "delta=2"; "delay=1:3";
      "open"; "x"; "1"; "22"; " "; " "; "\t"; "\r"; "\n"; "\012"; "#" ]
  in
  let gen =
    QCheck.Gen.(map (String.concat "") (list_size (0 -- 12) (oneofl pieces)))
  in
  QCheck.Test.make ~count:2000 ~name:"tokens match the split/trim reference"
    (QCheck.make ~print:(Printf.sprintf "%S") gen)
    (fun line ->
      Protocol.parse line
      = Protocol.parse (String.concat " " (reference_tokens line)))

(* near misses: start from a valid command and damage it a little —
   the parser must degrade to a clean error or another valid parse,
   never an exception or a raise from int_of_string and friends *)
let valid_commands =
  [
    "submit 3 2 4";
    "submit 2 4";
    "step 7";
    "step 1";
    "state";
    "reconfigure delta=3 n=9 delay=0:4,1:6";
    "reconfigure delay=2:5";
    "checkpoint";
    "open side-1";
    "attach side-1";
    "sessions";
    "shutdown";
    "quit";
    "help";
  ]

let mutate_gen =
  let open QCheck.Gen in
  let* base = oneofl valid_commands in
  let* kind = int_bound 5 in
  let len = String.length base in
  let* i = int_bound (max 0 (len - 1)) in
  let* c = char in
  return
    (match kind with
    | 0 when len > 0 ->
        (* flip one byte *)
        String.mapi (fun j x -> if j = i then c else x) base
    | 1 ->
        (* insert one byte *)
        String.sub base 0 i ^ String.make 1 c
        ^ String.sub base i (len - i)
    | 2 when len > 0 ->
        (* delete one byte *)
        String.sub base 0 i ^ String.sub base (i + 1) (len - i - 1)
    | 3 ->
        (* duplicate the tail *)
        base ^ " " ^ String.sub base i (len - i)
    | 4 ->
        (* huge number where a field may be *)
        base ^ " 99999999999999999999999"
    | _ -> String.uppercase_ascii base)

let prop_parse_near_miss =
  QCheck.Test.make ~count:2000 ~name:"parse survives near-miss mutations"
    (QCheck.make ~print:(Printf.sprintf "%S") mutate_gen)
    parse_never_raises

(* ---- torn journal tail: exact byte offsets ------------------------ *)

let torture_config =
  {
    Server.default_config with
    n = 4;
    delta = 2;
    delay = Array.make 4 6;
    checkpoint_every = 6;
  }

let journal_header_fields =
  {
    Journal.policy = torture_config.Server.policy;
    n = torture_config.Server.n;
    delta = torture_config.Server.delta;
    delay = torture_config.Server.delay;
    mini_rounds = torture_config.Server.mini_rounds;
  }

let journal_header = Journal.header_to_line journal_header_fields

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let append_file path s =
  Out_channel.with_open_gen [ Open_append; Open_binary ] 0o644 path (fun oc ->
      Out_channel.output_string oc s)

(* The lines a version-3 writer writes after [journal_header] for these
   op texts, checks built here from the chain's definition: each op
   text hashed with the chain value of the line before (of the header,
   for the first), and the first six hex digits of the result. *)
let checked_lines texts =
  let hash = Wire.Hash.create () in
  Wire.Hash.feed hash journal_header ~pos:0 ~len:(String.length journal_header);
  Wire.Hash.link hash;
  List.map
    (fun text ->
      Wire.Hash.feed hash text ~pos:0 ~len:(String.length text);
      Wire.Hash.link hash;
      text ^ " #" ^ String.sub (Wire.Hash.chain hash) 0 6 ^ "\n")
    texts

let checked_journal texts =
  journal_header ^ "\n" ^ String.concat "" (checked_lines texts)

(* The op counts the journal's segment files in [dir] start at. *)
let segment_starts dir =
  List.filter_map Journal.segment_of_name (Array.to_list (Sys.readdir dir))

(* Fold the journal in [dir] from segment 0 on. *)
let fold_top dir ~init ~f =
  let r = Journal.reader () in
  Result.bind (Journal.top r dir) (fun (_, from) ->
      Journal.fold r dir from ~segments:(segment_starts dir) ~init ~f)

(* Every op the journal in [dir] holds from segment 0 on, and the torn
   tail dropped, if any. *)
let journal_ops dir =
  fold_top dir ~init:[] ~f:(fun ops op -> op :: ops)
  |> Result.map (fun (ops, tear, _) -> (List.rev ops, tear))

(* The journal's segment files in [dir], oldest first. *)
let segment_files dir =
  List.sort compare (segment_starts dir)
  |> List.map (fun start -> Filename.concat dir (Journal.segment_name start))

let last_segment dir = List.nth (segment_files dir) (List.length (segment_files dir) - 1)

(* A journal written by the writer, then the start of one more op line
   with no newline. *)
let write_torn_journal dir =
  let w = Journal.create dir journal_header_fields in
  Journal.append w (Journal.Submit { round = 0; color = 1; count = 2 });
  Journal.append w (Journal.Step 1);
  Journal.close w;
  let path = Filename.concat dir "journal.jsonl" in
  let intact = (Unix.stat path).Unix.st_size in
  append_file path "submit 1 3";
  (path, intact)

let contains needle s =
  let n = String.length needle and m = String.length s in
  let rec find i = i + n <= m && (String.sub s i n = needle || find (i + 1)) in
  find 0

let test_torn_tail_offset () =
  let dir = temp_dir "torn" in
  Fun.protect ~finally:(fun () -> rm_rf dir) @@ fun () ->
  let path, intact = write_torn_journal dir in
  (match journal_ops dir with
  | Ok (ops, Some tear) ->
      Alcotest.(check int) "ops before the tear" 2 (List.length ops);
      Alcotest.(check int) "tear offset" intact tear.Journal.offset;
      let msg = Journal.describe_tear ~dir tear in
      Alcotest.(check bool)
        (Printf.sprintf "describe_tear names offset %d: %s" intact msg)
        true
        (contains (string_of_int intact) msg)
  | Ok (_, None) -> Alcotest.fail "tear not detected"
  | Error e ->
      Alcotest.failf "load failed: %s" (Journal.describe_load_error ~dir e));
  (* the server restore drops the tear (tier 1), reports it, and
     truncates the file so the next append cannot glue onto it *)
  let h = Server.host { torture_config with checkpoint_dir = Some dir } in
  let s = Server.open_session h Server.default_session in
  Alcotest.(check int) "restored ops" 2 (Server.session_ops s);
  Alcotest.(check bool) "a recovery notice names the offset" true
    (List.exists (contains (string_of_int intact)) (Server.session_notices s));
  Alcotest.(check int) "journal truncated to the tear offset" intact
    (Unix.stat path).Unix.st_size;
  Server.abandon_session h s

(* ---- tiered recovery ---------------------------------------------- *)

(* 25 ops: the fixture's last segment holds one op past the current
   checkpoint *)
let torture_ops = Torture.ops_of_seed ~count:25 ~colors:4 5

let rec rm_rf_deep path =
  match Sys.is_directory path with
  | true ->
      Array.iter
        (fun e -> rm_rf_deep (Filename.concat path e))
        (Sys.readdir path);
      Unix.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let with_fixture_dir ?(config = torture_config) name f =
  let dir = temp_dir name in
  Fun.protect ~finally:(fun () -> rm_rf_deep dir) @@ fun () ->
  Torture.build_fixture config torture_ops dir;
  f dir

let restore_case case dir = Torture.restore_case ~case ~ops:torture_ops torture_config dir

let test_checkpoint_quarantine () =
  with_fixture_dir "ckptq" @@ fun dir ->
  let cpath = Filename.concat dir "checkpoint.json" in
  write_file cpath "this is not a snapshot\n";
  let v = restore_case "ckpt-garbage" dir in
  Alcotest.(check int) "tier 2 (quarantine + replay)" 2 v.Torture.tier;
  Alcotest.(check bool) "contained" true v.Torture.contained;
  Alcotest.(check bool) "no divergence" false v.Torture.diverged;
  Alcotest.(check bool) "corrupt checkpoint quarantined" true
    (Sys.file_exists (cpath ^ ".corrupt-1"));
  Alcotest.(check bool) "no replacement checkpoint left behind" true
    (not (Sys.file_exists cpath) || read_file cpath <> "this is not a snapshot\n")

(* Line [i] of a file replaced. *)
let replace_line path i line =
  let lines = String.split_on_char '\n' (read_file path) in
  if i >= List.length lines - 1 then Alcotest.failf "%s has no line %d" path i;
  write_file path (String.concat "\n" (List.mapi (fun j l -> if j = i then line else l) lines))

let test_journal_body_refuses () =
  with_fixture_dir "bodyq" @@ fun dir ->
  (* the segment a restore from the current checkpoint reads; line 0 is
     its header *)
  let segment = last_segment dir in
  replace_line segment 1 "definitely not an op";
  let original = read_file segment in
  let refuses case =
    let v = restore_case case dir in
    Alcotest.(check int) (case ^ " tier 3") 3 v.Torture.tier;
    Alcotest.(check bool) (case ^ " contained") true v.Torture.contained
  in
  refuses "journal-body";
  Alcotest.(check bool) "forensic copy quarantined" true
    (Sys.file_exists (segment ^ ".corrupt-1"));
  Alcotest.(check string) "original segment untouched" original (read_file segment);
  (* the original stays put, so a blind restart refuses again *)
  refuses "journal-body-again"

(* ---- journal lines: framing, checks, strictness, old versions ----
   (the group keeps the name of version 2, which made op lines protocol
   lines; version 3 adds their checks and the segments) *)

let with_temp_dir name f =
  let dir = temp_dir name in
  Fun.protect ~finally:(fun () -> rm_rf_deep dir) @@ fun () -> f dir

(* The writer's bytes are the header line and one checked [op_to_line]
   line per append, and its anchor is the op count and the chain value
   after the last one — for a fresh journal and for one reopened at the
   end of a fold. *)
let test_writer_bytes () =
  with_temp_dir "writer" @@ fun dir ->
  let path = Filename.concat dir "journal.jsonl" in
  let ops =
    Journal.Reconfigure { delta = Some 3; n = Some 9; delay = [ (0, 4); (2, 7) ] }
    :: Journal.Reconfigure { delta = None; n = None; delay = [ (1, 2) ] }
    :: List.concat_map
         (fun seed -> Torture.ops_of_seed ~count:40 ~colors:9 seed)
         (List.init 10 Fun.id)
  in
  let first = List.filteri (fun i _ -> i < 150) ops
  and rest = List.filteri (fun i _ -> i >= 150) ops in
  let check_anchor label w ops =
    let lines = checked_lines (List.map Journal.op_to_line ops) in
    Alcotest.(check string) (label ^ ": bytes")
      (journal_header ^ "\n" ^ String.concat "" lines)
      (read_file path);
    let a = Journal.anchor w in
    Alcotest.(check int) (label ^ ": ops") (List.length ops) a.Journal.ops;
    (* the chain value's first digits are the last line's check *)
    let last = List.nth lines (List.length lines - 1) in
    Alcotest.(check string) (label ^ ": chain")
      (String.sub last (String.length last - 7) 6)
      (String.sub a.Journal.chain 0 6)
  in
  let w = Journal.create dir journal_header_fields in
  List.iter (Journal.append w) first;
  check_anchor "created" w first;
  Journal.close w;
  match fold_top dir ~init:() ~f:(fun () _ -> ()) with
  | Ok ((), None, position) ->
      let w = Journal.append_to dir position ~segments:[ 0 ] in
      List.iter (Journal.append w) rest;
      check_anchor "reopened" w ops;
      Journal.close w
  | _ -> Alcotest.fail "the written journal does not fold cleanly"

(* An append whose write fails (here: on a closed descriptor) raises
   and moves neither the anchor nor the file. *)
let test_failed_append_keeps_anchor () =
  with_temp_dir "failedappend" @@ fun dir ->
  let path = Filename.concat dir "journal.jsonl" in
  let w = Journal.create dir journal_header_fields in
  Journal.append w (Journal.Submit { round = 0; color = 1; count = 2 });
  Journal.append w (Journal.Step 3);
  let before = Journal.anchor w and bytes = read_file path in
  Journal.close w;
  match Journal.append w (Journal.Submit { round = 3; color = 1; count = 1 }) with
  | () -> Alcotest.fail "an append on a closed descriptor succeeded"
  | exception Unix.Unix_error _ ->
      let after = Journal.anchor w in
      Alcotest.(check int) "ops" before.Journal.ops after.Journal.ops;
      Alcotest.(check string) "chain" before.Journal.chain after.Journal.chain;
      Alcotest.(check string) "file" bytes (read_file path)

let test_op_lines_roundtrip () =
  let ops =
    Journal.Reconfigure { delta = Some 3; n = Some 9; delay = [ (0, 4); (2, 7) ] }
    :: Journal.Reconfigure { delta = None; n = Some 2; delay = [] }
    :: List.concat_map
         (fun seed -> Torture.ops_of_seed ~count:30 ~colors:9 seed)
         (List.init 20 Fun.id)
  in
  List.iter
    (fun op ->
      let line = Journal.op_to_line op in
      Alcotest.(check bool)
        (Printf.sprintf "%S decodes to its op" line)
        true
        (Journal.op_of_line line = Ok op);
      (* the journal line is the protocol line *)
      Alcotest.(check bool)
        (Printf.sprintf "%S is canonical protocol" line)
        true
        (match Protocol.parse line with
        | Ok (Some cmd) -> Protocol.command_to_string cmd = line
        | _ -> false))
    ops

(* A protocol line is not self-delimiting, and neither is its check:
   only the newline marks a line whole, so a final line without one is
   torn whatever it holds. *)
let test_unterminated_tail_torn () =
  with_temp_dir "v2torn" @@ fun dir ->
  let path = Filename.concat dir "journal.jsonl" in
  let lines = checked_lines [ "submit 0 1 2"; "step"; "submit 12345 517 32" ] in
  let body = journal_header ^ "\n" ^ List.nth lines 0 ^ List.nth lines 1 in
  let last = List.nth lines 2 in
  (* the whole last line, its check included, but not its newline *)
  write_file path (body ^ String.sub last 0 (String.length last - 1));
  (match journal_ops dir with
  | Ok (ops, Some tear) ->
      Alcotest.(check bool) "only the terminated ops" true
        (ops
        = [ Journal.Submit { round = 0; color = 1; count = 2 }; Journal.Step 1 ]);
      Alcotest.(check int) "tear line" 4 tear.Journal.line;
      Alcotest.(check int) "tear offset" (String.length body) tear.Journal.offset
  | Ok (_, None) -> Alcotest.fail "the unterminated final line was replayed"
  | Error e -> Alcotest.failf "load failed: %s" (Journal.describe_load_error ~dir e));
  (* the same line with its newline is an op like any other *)
  write_file path (body ^ last);
  (match journal_ops dir with
  | Ok (ops, None) -> Alcotest.(check int) "terminated, replayed" 3 (List.length ops)
  | _ -> Alcotest.fail "a terminated final line must load");
  (* the server drops the unterminated op (tier 1) and cuts the file *)
  write_file path (body ^ "submit 1 2 3");
  let h = Server.host { torture_config with checkpoint_dir = Some dir } in
  let s = Server.open_session h Server.default_session in
  Alcotest.(check int) "restored ops" 2 (Server.session_ops s);
  Alcotest.(check int) "one notice" 1 (List.length (Server.session_notices s));
  Alcotest.(check int) "journal cut at the tear" (String.length body)
    (Unix.stat path).Unix.st_size;
  Server.abandon_session h s

(* A line whose check is right but which is no journal op is corrupt,
   as is an op line without its check, or with a wrong one — the last
   line of the file included. *)
let test_only_canonical_ops () =
  with_temp_dir "v2strict" @@ fun dir ->
  let path = Filename.concat dir "journal.jsonl" in
  let before = checked_journal [ "submit 0 1 2" ] in
  let refused label contents ~line ~offset =
    write_file path contents;
    match journal_ops dir with
    | Error (Journal.Corrupt_body c) ->
        Alcotest.(check int) (label ^ ": line") line c.line;
        Alcotest.(check int) (label ^ ": offset") offset c.offset
    | Error e ->
        Alcotest.failf "%S: wrong refusal: %s" label (Journal.describe_load_error ~dir e)
    | Ok _ -> Alcotest.failf "%S: accepted as a journal" label
  in
  List.iter
    (fun bad ->
      refused bad (checked_journal [ "submit 0 1 2"; bad; "step" ]) ~line:3
        ~offset:(String.length before))
    [ "state"; "open x"; "submit 1 2"; "# a comment"; "quit" ];
  refused "no check" (before ^ "step\nstep\n") ~line:3 ~offset:(String.length before);
  let good = checked_journal [ "submit 0 1 2"; "step" ] in
  let wrong = String.sub good 0 (String.length good - 2) ^ (if good.[String.length good - 2] = '0' then "1" else "0") ^ "\n" in
  refused "a wrong check on the last line" wrong ~line:3 ~offset:(String.length before)

(* A fold ends at the position a reopened writer carries on from: blank
   lines skipped, a torn tail excluded.  A rotated segment starts at the
   writer's anchor, and [Journal.at] finds it there and nowhere else. *)
let test_journal_positions () =
  with_temp_dir "positions" @@ fun dir ->
  let path = Filename.concat dir "journal.jsonl" in
  let lines = checked_lines [ "submit 0 1 2"; "step" ] in
  let intact = journal_header ^ "\n" ^ List.nth lines 0 ^ "\n  \n" ^ List.nth lines 1 ^ "\n" in
  write_file path (intact ^ "submit 5 1");
  match fold_top dir ~init:() ~f:(fun () _ -> ()) with
  | Ok ((), Some tear, position) ->
      Alcotest.(check int) "tear at the end of the intact part"
        (String.length intact) tear.Journal.offset;
      Unix.truncate path tear.Journal.offset;
      let w = Journal.append_to dir position ~segments:[ 0 ] in
      Journal.append w (Journal.Step 2);
      let anchor = Journal.anchor w and r = Journal.reader () in
      Alcotest.(check int) "ops" 3 anchor.Journal.ops;
      Alcotest.(check bool) "no segment starts mid-journal" true
        (Option.is_none (Journal.at r dir anchor));
      Journal.rotate w ~reuse_below:0;
      Alcotest.(check bool) "rotated: a segment named after the anchor" true
        (Sys.file_exists (Filename.concat dir (Journal.segment_name 3)));
      Journal.append w (Journal.Step 1);
      Journal.close w;
      Alcotest.(check bool) "at finds the segment" true
        (Option.is_some (Journal.at r dir anchor));
      Alcotest.(check bool) "at refuses another chain value" true
        (Option.is_none
           (Journal.at r dir { anchor with Journal.chain = String.make 16 '0' }));
      Alcotest.(check bool) "at refuses another op count" true
        (Option.is_none (Journal.at r dir { anchor with Journal.ops = 2 }));
      (* the fold from the top runs through both segments *)
      (match journal_ops dir with
      | Ok (ops, None) -> Alcotest.(check int) "ops through both segments" 4 (List.length ops)
      | _ -> Alcotest.fail "the two segments do not fold cleanly");
      let at_zero = Journal.at r dir { Journal.ops = 0; chain = String.make 16 '0' } in
      Alcotest.(check bool) "segment 0 is hashed, not trusted" true (Option.is_none at_zero)
  | Ok (_, None, _) -> Alcotest.fail "tear not detected"
  | Error e -> Alcotest.failf "load failed: %s" (Journal.describe_load_error ~dir e)

(* ---- the read(2) reader against the channel oracle (QCheck) ------ *)

module Oracle_journal = Rrs_oracle.Journal

(* What is done to a journal the writer wrote.  Segments are picked by
   index among the files on disk (oldest first) and lines by index in
   the file, both modulo what exists. *)
type journal_mutation =
  | Blank of int * int * string  (** a blank line before a line *)
  | Tear of string  (** an unterminated line after the last segment's end *)
  | Cut_newline  (** the last segment's final newline removed *)
  | Cut_header of int * int  (** a later segment cut to its first bytes *)
  | Remove of int  (** a segment removed *)
  | Flip of int * int  (** one byte of a segment flipped *)
  | Edit of int * int * string  (** a line's op text replaced, its check kept *)
  | Swap of int * int  (** a line swapped with the next *)
  | Cut of int * int  (** a segment truncated *)

type journal_case = {
  ops : Journal.op list;
  rotations : int list;  (** op counts a rotation happens at *)
  retire : bool;  (** segment 0 retired after the rotations *)
  mutations : journal_mutation list;
  start : int option;  (** the anchor of the nth rotation, or the top *)
  bad_chain : bool;  (** ... with its chain value changed *)
  capacity : int;  (** the reader's buffer *)
}

let print_mutation = function
  | Blank (s, l, t) -> Printf.sprintf "blank(%d,%d,%S)" s l t
  | Tear t -> Printf.sprintf "tear(%S)" t
  | Cut_newline -> "cut-newline"
  | Cut_header (s, k) -> Printf.sprintf "cut-header(%d,%d)" s k
  | Remove s -> Printf.sprintf "remove(%d)" s
  | Flip (s, b) -> Printf.sprintf "flip(%d,%d)" s b
  | Edit (s, l, t) -> Printf.sprintf "edit(%d,%d,%S)" s l t
  | Swap (s, l) -> Printf.sprintf "swap(%d,%d)" s l
  | Cut (s, b) -> Printf.sprintf "cut(%d,%d)" s b

let print_journal_case c =
  Printf.sprintf "%d ops, rotations [%s]%s, mutations [%s], start %s%s, capacity %d"
    (List.length c.ops)
    (String.concat ";" (List.map string_of_int c.rotations))
    (if c.retire then ", segment 0 retired" else "")
    (String.concat "; " (List.map print_mutation c.mutations))
    (match c.start with None -> "top" | Some i -> Printf.sprintf "rotation %d" i)
    (if c.bad_chain then " (bad chain)" else "")
    c.capacity

let journal_case_gen =
  let open QCheck.Gen in
  let long_reconfigure =
    map
      (fun k -> Journal.Reconfigure { delta = None; n = None; delay = List.init k (fun c -> (c, 4 + c)) })
      (20 -- 120)
  in
  let* count = frequency [ (9, 0 -- 60); (1, 3000 -- 6000) ] in
  let* seed = 0 -- 10_000 in
  let* longs = list_size (0 -- 3) (pair (0 -- max 0 count) long_reconfigure) in
  let ops =
    List.fold_left
      (fun ops (at, op) -> List.filteri (fun i _ -> i < at) ops @ [ op ] @ List.filteri (fun i _ -> i >= at) ops)
      (Torture.ops_of_seed ~count ~colors:6 seed)
      longs
  in
  let total = List.length ops in
  let* rotations = list_size (0 -- 4) (0 -- total) in
  let rotations = List.sort_uniq compare rotations in
  let* retire = frequency [ (4, return false); (1, return true) ] in
  let mutation =
    let small = 0 -- 1000 in
    frequency
      [
        (2, map3 (fun s l t -> Blank (s, l, t)) small small (oneofl [ ""; " "; "\t\r"; "  \012" ]));
        (2, map (fun t -> Tear t) (oneofl [ "s"; "submit 1 2"; "step #"; "step #0a1b2c" ]));
        (1, return Cut_newline);
        (2, map2 (fun s k -> Cut_header (s, k)) small (0 -- 60));
        (1, map (fun s -> Remove s) small);
        (2, map2 (fun s b -> Flip (s, b)) small (0 -- 100_000));
        (2, map3 (fun s l t -> Edit (s, l, t)) small small (oneofl [ "step"; "step 2"; "submit 0 1 1"; "state" ]));
        (2, map2 (fun s l -> Swap (s, l)) small small);
        (1, map2 (fun s b -> Cut (s, b)) small (0 -- 100_000));
        (1, map2 (fun s b -> Cut (s, b)) small (0 -- 3));
      ]
  in
  let* mutations = frequency [ (1, return []); (4, list_size (1 -- 2) mutation) ] in
  let* start = frequency [ (1, return None); (2, map Option.some (0 -- 4)) ] in
  let* bad_chain = frequency [ (6, return false); (1, return true) ] in
  let* capacity = oneofl [ 1; 7; 16; 64; 65536 ] in
  return { ops; rotations; retire; mutations; start; bad_chain; capacity }

(* The lines of [text], each with its newline when it had one. *)
let split_lines text =
  let rec go acc i =
    if i >= String.length text then List.rev acc
    else
      match String.index_from_opt text i '\n' with
      | Some j -> go (String.sub text i (j - i + 1) :: acc) (j + 1)
      | None -> List.rev (String.sub text i (String.length text - i) :: acc)
  in
  go [] 0

let mutate_journal dir m =
  let files = segment_files dir in
  let nth k = List.nth files (k mod List.length files) in
  let edit_lines k f =
    let path = nth k in
    write_file path (String.concat "" (f (Array.of_list (split_lines (read_file path)))))
  in
  let last () = List.nth files (List.length files - 1) in
  if files <> [] then
    match m with
    | Blank (k, l, t) ->
        edit_lines k (fun lines ->
            let l = l mod (Array.length lines + 1) in
            Array.to_list (Array.sub lines 0 l) @ [ t ^ "\n" ]
            @ Array.to_list (Array.sub lines l (Array.length lines - l)))
    | Tear t -> append_file (last ()) t
    | Cut_newline ->
        let path = last () in
        let size = (Unix.stat path).Unix.st_size in
        if size > 0 && (read_file path).[size - 1] = '\n' then Unix.truncate path (size - 1)
    | Cut_header (k, keep) ->
        (* a segment after segment 0's *)
        let path = nth k in
        if Journal.segment_of_name (Filename.basename path) <> Some 0 then
          Unix.truncate path (min keep (String.index (read_file path ^ "\n") '\n'))
    | Remove k -> Sys.remove (nth k)
    | Flip (k, b) ->
        let path = nth k in
        let text = Bytes.of_string (read_file path) in
        if Bytes.length text > 0 then begin
          let b = b mod Bytes.length text in
          Bytes.set text b (Char.chr (Char.code (Bytes.get text b) lxor (1 lsl (b mod 7))));
          write_file path (Bytes.to_string text)
        end
    | Edit (k, l, t) ->
        edit_lines k (fun lines ->
            List.mapi
              (fun i line ->
                let n = String.length line in
                if i = l mod Array.length lines && n > 9 && line.[n - 9] = ' ' && line.[n - 8] = '#'
                then t ^ String.sub line (n - 9) 9
                else line)
              (Array.to_list lines))
    | Swap (k, l) ->
        edit_lines k (fun lines ->
            let n = Array.length lines in
            if n > 1 then begin
              let l = l mod (n - 1) in
              let a = lines.(l) in
              lines.(l) <- lines.(l + 1);
              lines.(l + 1) <- a
            end;
            Array.to_list lines)
    | Cut (k, b) ->
        let path = nth k in
        Unix.truncate path (b mod ((Unix.stat path).Unix.st_size + 1))

let prop_reader_matches_oracle =
  QCheck.Test.make ~count:300 ~name:"the read(2) reader = the channel oracle"
    (QCheck.make ~print:print_journal_case journal_case_gen)
    (fun c ->
      with_temp_dir "oracle" @@ fun dir ->
      let w = Journal.create dir journal_header_fields in
      let anchors = ref [] in
      List.iteri
        (fun i op ->
          if List.mem i c.rotations then begin
            Journal.rotate w ~reuse_below:0;
            anchors := Journal.anchor w :: !anchors
          end;
          Journal.append w op)
        c.ops;
      if List.mem (List.length c.ops) c.rotations then begin
        Journal.rotate w ~reuse_below:0;
        anchors := Journal.anchor w :: !anchors
      end;
      if c.retire && !anchors <> [] then Journal.retire w ~below:1;
      Journal.close w;
      List.iter (mutate_journal dir) c.mutations;
      let r = Journal.reader ~capacity:c.capacity () in
      let anchors = List.rev !anchors in
      let same_position (p : Journal.position) (q : Oracle_journal.position) =
        Journal.where p = Oracle_journal.where q
        && Journal.bytes_read p = q.Oracle_journal.read
      in
      let folded p q =
        let collect ops op = op :: ops in
        match
          ( Journal.fold r dir p ~segments:(segment_starts dir) ~init:[] ~f:collect,
            Oracle_journal.fold dir q ~init:[] ~f:collect )
        with
        | Ok (ops, tear, p), Ok (ops', tear', q) ->
            if ops <> ops' then QCheck.Test.fail_reportf "ops differ: %d, oracle %d" (List.length ops) (List.length ops');
            if tear <> tear' then QCheck.Test.fail_report "tears differ";
            if not (same_position p q) then QCheck.Test.fail_report "end positions differ";
            true
        | Error e, Error e' ->
            if e <> e' then
              QCheck.Test.fail_reportf "errors differ: %s / oracle %s"
                (Journal.describe_load_error ~dir e) (Journal.describe_load_error ~dir e');
            true
        | Ok _, Error e -> QCheck.Test.fail_reportf "only the oracle refused: %s" (Journal.describe_load_error ~dir e)
        | Error e, Ok _ -> QCheck.Test.fail_reportf "only the reader refused: %s" (Journal.describe_load_error ~dir e)
      in
      match Option.map (fun i -> List.nth_opt anchors (i mod max 1 (List.length anchors))) c.start with
      | Some (Some (a : Journal.anchor)) -> (
          let a = if c.bad_chain then { a with Journal.chain = String.make 16 'f' } else a in
          match (Journal.at r dir a, Oracle_journal.at dir a) with
          | None, None -> true
          | Some p, Some q ->
              if not (same_position p q) then QCheck.Test.fail_report "start positions differ";
              folded p q
          | _ -> QCheck.Test.fail_report "at: only one side found the anchor")
      | Some None | None -> (
          match (Journal.top r dir, Oracle_journal.top dir) with
          | Error e, Error e' -> e = e' || QCheck.Test.fail_report "top errors differ"
          | Ok (h, p), Ok (h', q) ->
              if h <> h' || not (same_position p q) then QCheck.Test.fail_report "tops differ";
              folded p q
          | _ -> QCheck.Test.fail_report "top: only one side failed"))

(* A corrupt journal body refuses before any checkpoint is judged: an
   unreadable checkpoint stays where it is. *)
let test_corrupt_body_keeps_checkpoint () =
  with_fixture_dir "bodyckpt" @@ fun dir ->
  let cpath = Filename.concat dir "checkpoint.json" in
  replace_line (last_segment dir) 1 "state";
  write_file cpath "this is not a snapshot\n";
  let v = restore_case "body-and-checkpoint" dir in
  Alcotest.(check int) "tier 3" 3 v.Torture.tier;
  Alcotest.(check string) "checkpoint left in place" "this is not a snapshot\n"
    (read_file cpath);
  Alcotest.(check bool) "no checkpoint quarantined" false
    (Sys.file_exists (cpath ^ ".corrupt-1"))

(* Journals of older versions are not read: the header refuses the
   restore (tier 3) with a message that names the version, and the file
   is left as it was.  Version 1 wrote one JSON object per op, version 2
   protocol lines without checks. *)
let test_old_journal_refused version body () =
  with_temp_dir (Printf.sprintf "v%d" version) @@ fun dir ->
  let path = Filename.concat dir "journal.jsonl" in
  let journal =
    Printf.sprintf
      {|{"type":"serve_open","version":%d,"policy":"dlru-edf","n":4,"delta":2,"delay":[6,6,6,6],"mini_rounds":1}
%s|}
      version body
  in
  write_file path journal;
  (match journal_ops dir with
  | Error (Journal.Bad_header { offset = 0; reason }) ->
      Alcotest.(check bool)
        (Printf.sprintf "the reason names version %d: %s" version reason)
        true
        (String.starts_with
           ~prefix:(Printf.sprintf "journal header: version %d " version)
           reason)
  | _ -> Alcotest.failf "a version-%d header was read" version);
  let v = restore_case (Printf.sprintf "v%d" version) dir in
  Alcotest.(check int) "tier 3" 3 v.Torture.tier;
  Alcotest.(check bool) "contained" true v.Torture.contained;
  Alcotest.(check string) "journal untouched" journal (read_file path)

let test_v1_journal_refused =
  test_old_journal_refused 1
    {|{"type":"serve_op","op":"submit","round":0,"color":1,"count":2}
{"type":"serve_op","op":"step","rounds":2}
|}

let test_v2_journal_refused = test_old_journal_refused 2 "submit 0 1 2\nstep 2\n"

(* Segment 0's body is an [rrs serve] script: the checks are comments
   to the protocol parser, so piped into a fresh ephemeral server it
   rebuilds the journaled state. *)
let test_body_is_serve_script () =
  with_fixture_dir ~config:{ torture_config with checkpoint_every = 0 } "script"
  @@ fun dir ->
  let lines =
    In_channel.with_open_bin (Filename.concat dir "journal.jsonl")
      In_channel.input_lines
  in
  let code, output =
    run_server torture_config (String.concat "\n" (List.tl lines @ [ "state" ]) ^ "\n")
  in
  Alcotest.(check int) "exit" 0 code;
  let expected = Torture.straight_line torture_config torture_ops in
  Alcotest.(check bool) "state line = straight line" true
    (List.exists
       (fun l ->
         match Torture.snapshot_of_line l with
         | Ok s -> Snapshot.equal s expected
         | Error _ -> false)
       output)

(* Line 1 of a full-state checkpoint rewritten with another executed
   count, line 2 kept: the digest covers line 1, so the file no longer
   verifies. *)
let tamper_checkpoint cpath =
  let contents = read_file cpath in
  let eol = String.index contents '\n' in
  match Torture.snapshot_of_line contents with
  | Error e -> Alcotest.failf "fixture checkpoint unreadable: %s" e
  | Ok s ->
      write_file cpath
        (Snapshot.to_line { s with Snapshot.executed = s.Snapshot.executed + 7 }
        ^ String.sub contents eol (String.length contents - eol))

let test_prev_checkpoint_arbitration () =
  with_fixture_dir "arbit" @@ fun dir ->
  let cpath = Filename.concat dir "checkpoint.json" in
  Alcotest.(check bool) "fixture rotated a previous checkpoint" true
    (Sys.file_exists (cpath ^ ".prev"));
  tamper_checkpoint cpath;
  (* the tampered current checkpoint fails its digest and the previous
     one verifies: quarantine the current one and start from [.prev] *)
  let v = restore_case "arbitration" dir in
  Alcotest.(check int) "tier 2" 2 v.Torture.tier;
  Alcotest.(check bool) "contained" true v.Torture.contained;
  Alcotest.(check bool) "lying checkpoint quarantined" true
    (Sys.file_exists (cpath ^ ".corrupt-1"))

let checkpoint_ops path =
  match Torture.snapshot_of_line (read_file path) with
  | Ok s -> s.Snapshot.ops
  | Error e -> Alcotest.failf "%s: %s" path e

(* A torn line can only end the journal: the previous checkpoint's
   segment cut one byte short, with the current checkpoint corrupt so
   that the restore reads it, is followed by the current checkpoint's
   segment and refuses (tier 3), where the same cut in the last segment
   is a torn tail (tier 1). *)
let test_torn_line_before_a_segment_refuses () =
  with_fixture_dir "tornmid" @@ fun dir ->
  let cpath = Filename.concat dir "checkpoint.json" in
  let cut path = Unix.truncate path ((Unix.stat path).Unix.st_size - 1) in
  cut (Filename.concat dir (Journal.segment_name (checkpoint_ops (cpath ^ ".prev"))));
  Torture.flip_byte cpath 2;
  let v = restore_case "torn-before-a-segment" dir in
  Alcotest.(check int) "tier 3" 3 v.Torture.tier;
  Alcotest.(check bool) "contained" true v.Torture.contained;
  with_fixture_dir "tornend" @@ fun dir ->
  cut (last_segment dir);
  let v = restore_case "torn-last-segment" dir in
  Alcotest.(check int) "tier 1" 1 v.Torture.tier;
  Alcotest.(check bool) "contained" true v.Torture.contained

(* The current checkpoint's segment names another chain value, and no
   previous checkpoint is left to vouch for the journal: the restore
   refuses and leaves the checkpoint where it is. *)
let test_lone_divergence_refuses () =
  with_fixture_dir "lonediv" @@ fun dir ->
  let cpath = Filename.concat dir "checkpoint.json" in
  Sys.remove (cpath ^ ".prev");
  let segment = Filename.concat dir (Journal.segment_name (checkpoint_ops cpath)) in
  (match String.split_on_char '\n' (read_file segment) with
  | header :: _ ->
      let n = String.length header in
      replace_line segment 0
        (String.sub header 0 (n - 1) ^ if header.[n - 1] = '0' then "1" else "0")
  | [] -> Alcotest.fail "empty segment");
  let v = restore_case "lone-divergence" dir in
  Alcotest.(check int) "tier 3" 3 v.Torture.tier;
  Alcotest.(check bool) "contained" true v.Torture.contained;
  Alcotest.(check bool) "checkpoint left in place" false
    (Sys.file_exists (cpath ^ ".corrupt-1"))

(* ---- prefix-replay property (satellite: checkpoint at prefix +
   replay of suffix == straight line, for every prefix) -------------- *)

let apply_all h s ops =
  List.iter
    (fun op ->
      match Server.apply_op s op with
      | Ok _ -> Server.commit h s op
      | Error _ -> ())
    ops

let rec take k = function
  | [] -> []
  | _ when k = 0 -> []
  | x :: tl -> x :: take (k - 1) tl

let rec drop k = function
  | [] -> []
  | l when k = 0 -> l
  | _ :: tl -> drop (k - 1) tl

let test_prefix_replay () =
  List.iter
    (fun seed ->
      let ops = Torture.ops_of_seed ~count:20 ~colors:4 seed in
      let full = Torture.straight_line torture_config ops in
      List.iteri
        (fun k () ->
          let dir = temp_dir (Printf.sprintf "prefix_%d_%d" seed k) in
          Fun.protect ~finally:(fun () -> rm_rf_deep dir) @@ fun () ->
          let durable =
            { torture_config with Server.checkpoint_dir = Some dir }
          in
          (* run the prefix, checkpoint it, die without a goodbye *)
          let h = Server.host durable in
          let s = Server.open_session h Server.default_session in
          apply_all h s (take k ops);
          ignore (Server.checkpoint_session h s);
          Server.abandon_session h s;
          (* a fresh process restores the checkpointed prefix... *)
          let h2 = Server.host durable in
          let s2 = Server.open_session h2 Server.default_session in
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: restored prefix %d" seed k)
            true
            (Snapshot.equal
               (Server.session_snapshot s2)
               (Torture.straight_line torture_config (take k ops)));
          (* ...and replaying the suffix lands on the straight line *)
          apply_all h2 s2 (drop k ops);
          Alcotest.(check bool)
            (Printf.sprintf "seed %d: prefix %d + suffix = straight line"
               seed k)
            true
            (Snapshot.equal (Server.session_snapshot s2) full);
          Server.abandon_session h2 s2)
        (List.init (List.length ops + 1) (fun _ -> ())))
    [ 1; 2; 3 ]

(* ---- full-state checkpoints: the restore fast path ---------------- *)

let checkpoint_lines path =
  String.split_on_char '\n' (read_file path) |> List.filter (( <> ) "")

let has_machine_state path =
  match checkpoint_lines path with
  | [ _; machine ] -> String.starts_with ~prefix:"serve_machine 2 " machine
  | _ -> false

(* Restore [dir] on a fresh host: the host, the session, and the ops
   and the units of replay work the restore replayed. *)
let restore_counting ?(config = torture_config) ?(name = Server.default_session)
    dir =
  let metrics = Rrs_obs.Metrics.create () in
  let h =
    Server.host { config with checkpoint_dir = Some dir; metrics = Some metrics }
  in
  let s = Server.open_session h name in
  let counter name = Rrs_obs.Metrics.value (Rrs_obs.Metrics.counter metrics name) in
  (h, s, counter "serve_restore_replayed_ops", counter "serve_restore_replayed_work")

(* ops generated from round 0, moved to start at [round] *)
let ops_from round seed =
  List.map
    (function
      | Journal.Submit r -> Journal.Submit { r with round = r.round + round }
      | op -> op)
    (Torture.ops_of_seed ~count:30 ~colors:4 seed)

let test_fast_path_equals_full_replay () =
  with_fixture_dir "fast" @@ fun dir ->
  with_temp_dir "full" @@ fun full ->
  (* the same history without checkpoints: one segment *)
  Torture.build_fixture { torture_config with checkpoint_every = 0 } torture_ops full;
  Alcotest.(check bool) "the fixture checkpoint holds machine state" true
    (has_machine_state (Filename.concat dir "checkpoint.json"));
  let checkpointed = checkpoint_ops (Filename.concat dir "checkpoint.json") in
  (* no checkpoint at all: this restore replays the journal from its
     header *)
  let h1, fast, fast_replayed, fast_work = restore_counting dir in
  let h2, slow, slow_replayed, _ = restore_counting full in
  let ops = Server.session_ops fast in
  let every = torture_config.Server.checkpoint_every in
  Alcotest.(check int) "same op count" ops (Server.session_ops slow);
  Alcotest.(check int) "the fast path replays the suffix only"
    (ops - checkpointed) fast_replayed;
  Alcotest.(check bool)
    (Printf.sprintf "%d units of work replayed, less than checkpoint_every"
       fast_work)
    true (fast_work < every);
  Alcotest.(check int) "the replay from the header replays every op" ops
    slow_replayed;
  (* equal machine states: checkpoints taken now are byte-identical *)
  ignore (Server.checkpoint_session h1 fast);
  ignore (Server.checkpoint_session h2 slow);
  Alcotest.(check string) "checkpoint after the fast path = after a full replay"
    (read_file (Filename.concat dir "checkpoint.json"))
    (read_file (Filename.concat full "checkpoint.json"));
  let more = ops_from (Server.session_snapshot fast).Snapshot.round 9 in
  apply_all h1 fast more;
  apply_all h2 slow more;
  Alcotest.(check bool) "and their futures agree" true
    (Snapshot.equal (Server.session_snapshot fast) (Server.session_snapshot slow));
  Server.abandon_session h1 fast;
  Server.abandon_session h2 slow

(* A long history whose current checkpoint is corrupt: the restore
   starts from [.prev], not from the header, so it replays at most two
   checkpoint intervals, and lands on the straight line. *)
let test_corrupt_current_starts_from_prev () =
  with_temp_dir "fromprev" @@ fun dir ->
  let every = torture_config.Server.checkpoint_every in
  let ops = Torture.ops_of_seed ~count:(12 * every) ~colors:4 3 in
  Torture.build_fixture torture_config ops dir;
  let cpath = Filename.concat dir "checkpoint.json" in
  let expected = Torture.straight_line torture_config ops in
  let history = expected.Snapshot.ops in
  Alcotest.(check bool) "a history of at least 10 intervals" true
    (history >= 10 * every);
  Torture.flip_byte cpath 2;
  let h, s, replayed, _ = restore_counting dir in
  Alcotest.(check bool)
    (Printf.sprintf "%d ops replayed, at most %d" replayed (2 * every))
    true
    (replayed <= 2 * every);
  Alcotest.(check int) "every op restored" history (Server.session_ops s);
  Alcotest.(check bool) "restored = straight line" true
    (Snapshot.equal (Server.session_snapshot s) expected);
  Alcotest.(check bool) "the corrupt checkpoint quarantined" true
    (Sys.file_exists (cpath ^ ".corrupt-1"));
  Server.abandon_session h s

(* A [step] over a pending load costs more replay work than a whole
   checkpoint interval (its rounds and the jobs it executes or drops),
   so the default cadence checkpoints right after it: a restore then
   replays no op at all. *)
let test_loaded_step_never_replayed () =
  with_temp_dir "loadedstep" @@ fun dir ->
  let config = Server.default_config in
  let ops =
    List.init 4 (fun color -> Journal.Submit { round = 0; color; count = 300 })
    @ [ Journal.Step 64 ]
  in
  let h = Server.host { config with checkpoint_dir = Some dir } in
  let s = Server.open_session h Server.default_session in
  apply_all h s ops;
  Alcotest.(check int) "every op applied" 5 (Server.session_ops s);
  Server.abandon_session h s;
  let h, s, replayed, work = restore_counting ~config dir in
  Alcotest.(check int) "no op replayed" 0 replayed;
  Alcotest.(check int) "no work replayed" 0 work;
  Alcotest.(check bool) "restored = straight line" true
    (Snapshot.equal (Server.session_snapshot s)
       (Torture.straight_line config ops));
  Server.abandon_session h s

(* Programs of submits, steps of up to 16 rounds and delay
   reconfigurations, run on a durable session with a random cadence and
   abandoned after a random op, then restored, run to the end and
   abandoned again: whatever the history, each restore replays less
   than [checkpoint_every] units of work (the second one only if the
   restored session took the work at its checkpoint as its baseline)
   and lands on the straight line of the ops applied. *)
let replay_program_gen =
  QCheck.Gen.(
    let raw = quad (int_bound 9) (int_bound 15) (int_bound 3) (1 -- 8) in
    map
      (fun (every, raws, cut) ->
        let round = ref 0 in
        let ops =
          List.map
            (fun (kind, a, color, count) ->
              if kind < 6 then
                Journal.Submit { round = !round + (a mod 3); color; count }
              else if kind < 9 then begin
                round := !round + a + 1;
                Journal.Step (a + 1)
              end
              else
                Journal.Reconfigure
                  { delta = None; n = None; delay = [ (color, 2 + a) ] })
            raws
        in
        (every, ops, cut mod (List.length ops + 1)))
      (triple (1 -- 48) (list_size (0 -- 40) raw) nat))

let print_replay_program (every, ops, cut) =
  Printf.sprintf "every %d, abandoned after op %d of: %s" every cut
    (String.concat " | " (List.map Journal.op_to_line ops))

let prop_restore_replays_less_than_every =
  QCheck.Test.make ~count:150
    ~name:"a restore replays less than checkpoint_every units"
    (QCheck.make ~print:print_replay_program replay_program_gen)
    (fun (every, ops, cut) ->
      with_temp_dir "replaywork" @@ fun dir ->
      let config = { torture_config with Server.checkpoint_every = every } in
      let h = Server.host { config with checkpoint_dir = Some dir } in
      let s = Server.open_session h Server.default_session in
      apply_all h s (take cut ops);
      Server.abandon_session h s;
      let restore ops =
        let h, s, _, work = restore_counting ~config dir in
        if work >= every then
          QCheck.Test.fail_reportf "replayed %d units of work" work;
        if
          not
            (Snapshot.equal (Server.session_snapshot s)
               (Torture.straight_line config ops))
        then QCheck.Test.fail_report "restored state is not the straight line";
        (h, s)
      in
      let h, s = restore (take cut ops) in
      apply_all h s (drop cut ops);
      Server.abandon_session h s;
      let h, s = restore ops in
      Server.abandon_session h s;
      true)

(* ---- leave checkpoints -------------------------------------------- *)

let counter_of h name =
  Rrs_obs.Metrics.value (Rrs_obs.Metrics.counter (Server.metrics h) name)

(* [exec] a command that must switch the connection's session *)
let switch_to h current cmd =
  match Server.exec h current cmd with
  | Server.Switch (s, _) -> s
  | Server.Reply lines | Server.Bye lines | Server.Stop lines ->
      Alcotest.failf "%s: no switch: %s"
        (Protocol.command_to_string cmd)
        (String.concat " / " lines)

let session_checkpoint dir name =
  Filename.concat (Filename.concat (Filename.concat dir "sessions") name)
    "checkpoint.json"

(* six submits and a [step 2]: more replay work than the default
   config's 8 colors *)
let leave_ops =
  List.init 6 (fun color -> Journal.Submit { round = 0; color; count = 2 })
  @ [ Journal.Step 2 ]

(* A restore from the current checkpoint reads the segment that
   starts at it and no byte below: [serve_restore_journal_bytes] is that
   segment's size, the fixture's older segment unread.  A session that
   runs on keeps two segments, whatever its length. *)
let test_restore_reads_one_segment () =
  with_fixture_dir "onesegment" @@ fun dir ->
  let cpath = Filename.concat dir "checkpoint.json" in
  let segment = Filename.concat dir (Journal.segment_name (checkpoint_ops cpath)) in
  Alcotest.(check bool) "the fixture keeps an older segment" true
    (List.exists (fun p -> p <> segment) (segment_files dir));
  let h, s, replayed, _ = restore_counting dir in
  Alcotest.(check int) "journal bytes read = the checkpoint's segment"
    (Unix.stat segment).Unix.st_size
    (counter_of h "serve_restore_journal_bytes");
  Alcotest.(check int) "its one op replayed" 1 replayed;
  apply_all h s (ops_from (Server.session_snapshot s).Snapshot.round 4);
  ignore (Server.checkpoint_session h s);
  Alcotest.(check int) "two segments after a longer run" 2
    (List.length (segment_files dir));
  Alcotest.(check bool) "segment 0 retired" false
    (Sys.file_exists (Filename.concat dir "journal.jsonl"));
  Server.abandon_session h s

(* A restore opens each file it reads once: from the current
   checkpoint, that checkpoint and the segment it replays; with the
   current checkpoint corrupt, both checkpoints and the two segments
   from [.prev]'s on; without a checkpoint, the segments from segment 0
   on.  [serve_restore_files_read] counts them. *)
let test_restore_reads_each_file_once () =
  let files_read dir =
    let h, s, _, _ = restore_counting dir in
    Server.abandon_session h s;
    counter_of h "serve_restore_files_read"
  in
  with_fixture_dir "filesonce" @@ fun dir ->
  let cpath = Filename.concat dir "checkpoint.json" in
  Alcotest.(check int) "two segments on disk" 2 (List.length (segment_files dir));
  Alcotest.(check int) "the checkpoint and its segment" 2 (files_read dir);
  (* a restore leaves the files as they were *)
  Alcotest.(check int) "again" 2 (files_read dir);
  write_file cpath "this is not a snapshot\n";
  Alcotest.(check int) "both checkpoints and both segments" 4 (files_read dir);
  with_temp_dir "filesonce_top" @@ fun top ->
  Torture.build_fixture { torture_config with checkpoint_every = 0 } torture_ops top;
  Alcotest.(check int) "segment 0 alone" 1 (files_read top)

(* A session a connection leaves with at least [num_colors] units of
   replay work since its last checkpoint is checkpointed: restored
   later, it replays nothing. *)
let test_left_session_restores_without_replay () =
  with_temp_dir "leave" @@ fun dir ->
  let config = Server.default_config in
  let h = Server.host { config with checkpoint_dir = Some dir } in
  let a = Server.open_session h "a" in
  apply_all h a leave_ops;
  (match Server.exec h a (Protocol.Open "../b") with
  | Server.Reply [ line ] when String.starts_with ~prefix:"err open: " line -> ()
  | _ -> Alcotest.fail "open of an invalid name did not fail");
  Alcotest.(check int) "a failed open leaves nothing" 0
    (counter_of h "serve_checkpoints");
  let b = switch_to h a (Protocol.Open "b") in
  Alcotest.(check int) "one leave checkpoint" 1
    (counter_of h "serve_leave_checkpoints");
  Alcotest.(check int) "one checkpoint in all" 1 (counter_of h "serve_checkpoints");
  Server.abandon_session h a;
  Server.abandon_session h b;
  let h, s, replayed, work = restore_counting ~config ~name:"a" dir in
  Alcotest.(check int) "no op replayed" 0 replayed;
  Alcotest.(check int) "no work replayed" 0 work;
  Alcotest.(check bool) "restored = straight line" true
    (Snapshot.equal (Server.session_snapshot s)
       (Torture.straight_line config leave_ops));
  Server.abandon_session h s

(* A client that alternates two sessions, one unit of work per visit,
   pays one leave checkpoint per [num_colors] units of a session's
   work, and none below that. *)
let test_alternating_sessions_checkpoint_per_colors () =
  with_temp_dir "alternate" @@ fun dir ->
  let h = Server.host { Server.default_config with checkpoint_dir = Some dir } in
  let colors = Array.length Server.default_config.delay in
  let a = Server.open_session h "a" in
  let b = Server.open_session h "b" in
  let visit current next =
    apply_all h current [ Journal.Submit { round = 0; color = 0; count = 1 } ];
    switch_to h current (Protocol.Attach (Server.session_name next))
  in
  let rec alternate k current other =
    if k > 0 then alternate (k - 1) (visit current other) current
  in
  alternate (2 * (colors - 1)) a b;
  Alcotest.(check int)
    (Printf.sprintf "%d units per session: no leave checkpoint" (colors - 1))
    0
    (counter_of h "serve_checkpoints");
  Alcotest.(check bool) "no checkpoint file" false
    (Sys.file_exists (session_checkpoint dir "a")
    || Sys.file_exists (session_checkpoint dir "b"));
  (* on to 5 * colors units per session: 5 checkpoints each *)
  alternate (2 * ((4 * colors) + 1)) a b;
  Alcotest.(check int) "one leave checkpoint per num_colors units" 10
    (counter_of h "serve_leave_checkpoints");
  (* attaching to the current session leaves nothing *)
  apply_all h a leave_ops;
  ignore (switch_to h a (Protocol.Attach "a"));
  ignore (Server.exec h a (Protocol.Open "a"));
  Alcotest.(check int) "staying on a session is no leave" 10
    (counter_of h "serve_leave_checkpoints");
  Server.abandon_session h a;
  Server.abandon_session h b

let test_no_leave_checkpoint_when_off () =
  with_temp_dir "leaveoff" @@ fun dir ->
  let h =
    Server.host
      { Server.default_config with checkpoint_dir = Some dir; checkpoint_every = 0 }
  in
  let a = Server.open_session h "a" in
  apply_all h a leave_ops;
  let b = switch_to h a (Protocol.Open "b") in
  apply_all h b leave_ops;
  let a = switch_to h b (Protocol.Attach "a") in
  Alcotest.(check int) "no checkpoint" 0 (counter_of h "serve_checkpoints");
  Alcotest.(check bool) "no checkpoint file" false
    (Sys.file_exists (session_checkpoint dir "a")
    || Sys.file_exists (session_checkpoint dir "b"));
  Server.abandon_session h a;
  Server.abandon_session h b

(* A leave checkpoint whose commit fails (a directory where the temp
   file goes: the open fails with EISDIR) fails neither the switch nor
   the session: it is counted, the previous checkpoint stays whole,
   and the next leave commits. *)
let test_failed_leave_checkpoint_contained () =
  with_temp_dir "leavefail" @@ fun dir ->
  let config = Server.default_config in
  let h = Server.host { config with checkpoint_dir = Some dir } in
  let a = Server.open_session h "a" in
  apply_all h a leave_ops;
  (match Server.exec h a Protocol.Checkpoint with
  | Server.Reply [ line ] when String.starts_with ~prefix:"ok checkpoint" line -> ()
  | _ -> Alcotest.fail "checkpoint refused");
  let cpath = session_checkpoint dir "a" in
  let committed = read_file cpath in
  let more = ops_from (Server.session_snapshot a).Snapshot.round 4 in
  apply_all h a more;
  let temp =
    Filename.concat (Filename.dirname cpath)
      ("checkpoint.json.tmp." ^ string_of_int (Unix.getpid ()))
  in
  Unix.mkdir temp 0o755;
  let b = switch_to h a (Protocol.Open "b") in
  Alcotest.(check int) "the failure is counted" 1
    (counter_of h "serve_checkpoint_failures");
  Alcotest.(check int) "no leave checkpoint" 0
    (counter_of h "serve_leave_checkpoints");
  Alcotest.(check (option string)) "a is not wedged" None (Server.session_wedged a);
  Alcotest.(check string) "the committed checkpoint is whole" committed
    (read_file cpath);
  Unix.rmdir temp;
  let a = switch_to h b (Protocol.Attach "a") in
  apply_all h a [ Journal.Step 1 ];
  ignore (switch_to h a (Protocol.Attach "b"));
  Alcotest.(check int) "the next leave commits" 1
    (counter_of h "serve_leave_checkpoints");
  Server.abandon_session h a;
  Server.abandon_session h b;
  let h, s, _, work = restore_counting ~config ~name:"a" dir in
  Alcotest.(check int) "no work replayed" 0 work;
  Alcotest.(check bool) "restored = straight line" true
    (Snapshot.equal (Server.session_snapshot s)
       (Torture.straight_line config (leave_ops @ more @ [ Journal.Step 1 ])));
  Server.abandon_session h s

(* A checkpoint cut to exactly its first line cannot be a start: it is
   quarantined like any other unreadable checkpoint. *)
let test_line_one_only_quarantined () =
  with_fixture_dir "lineone" @@ fun dir ->
  let cpath = Filename.concat dir "checkpoint.json" in
  let line = List.hd (checkpoint_lines cpath) ^ "\n" in
  write_file cpath line;
  let v = restore_case "line-1-only" dir in
  Alcotest.(check int) "tier 2" 2 v.Torture.tier;
  Alcotest.(check bool) "contained" true v.Torture.contained;
  Alcotest.(check string) "quarantined as it was" line
    (read_file (cpath ^ ".corrupt-1"))

(* An op of the previous checkpoint's segment changed into another
   valid op, its check kept.  A restore from the current checkpoint
   never reads that segment, so it restores the unchanged state; with
   the current checkpoint corrupt, the restore starts from [.prev],
   reads the line, and refuses. *)
let test_flip_below_checkpoint_refuses () =
  with_fixture_dir "flipbelow" @@ fun dir ->
  let cpath = Filename.concat dir "checkpoint.json" in
  Alcotest.(check bool) "the fixture checkpoint holds machine state" true
    (has_machine_state cpath);
  let segment =
    Filename.concat dir (Journal.segment_name (checkpoint_ops (cpath ^ ".prev")))
  in
  let lines = String.split_on_char '\n' (read_file segment) in
  let first_submit =
    let rec find i = function
      | l :: rest -> if String.starts_with ~prefix:"submit " l then i else find (i + 1) rest
      | [] -> Alcotest.fail "no submit in the previous checkpoint's segment"
    in
    find 0 lines
  in
  let recount l =
    match String.split_on_char ' ' l with
    | [ "submit"; round; color; count; check ] ->
        String.concat " "
          [ "submit"; round; color; (if count = "1" then "2" else "1"); check ]
    | _ -> Alcotest.failf "not a submit line: %S" l
  in
  replace_line segment first_submit (recount (List.nth lines first_submit));
  let v = restore_case "flip-below-current" dir in
  Alcotest.(check int) "a segment no restore reads: tier 0" 0 v.Torture.tier;
  Alcotest.(check bool) "and the unchanged state" true v.Torture.contained;
  Torture.flip_byte cpath 2;
  let v = restore_case "flip-below-checkpoint" dir in
  Alcotest.(check int) "read from .prev: tier 3" 3 v.Torture.tier;
  Alcotest.(check bool) "contained" true v.Torture.contained

(* Line 2 is checked by its digest: one changed byte of the machine
   state makes the whole checkpoint unreadable (tier 2), and the
   restore falls back to the full replay. *)
let test_corrupt_machine_state_quarantined () =
  with_fixture_dir "badstate" @@ fun dir ->
  let cpath = Filename.concat dir "checkpoint.json" in
  let contents = read_file cpath in
  let at = String.length contents - 40 in
  write_file cpath
    (String.mapi (fun i c -> if i = at then (if c = '0' then '1' else '0') else c) contents);
  let v = restore_case "machine-state" dir in
  Alcotest.(check int) "tier 2" 2 v.Torture.tier;
  Alcotest.(check bool) "contained" true v.Torture.contained;
  Alcotest.(check bool) "quarantined" true (Sys.file_exists (cpath ^ ".corrupt-1"))

(* Line 2 with its digest made right again for its bytes before
   " digest=", so that only the damage done besides it can refuse it. *)
let redigest contents =
  let rec last i = if String.sub contents i 8 = " digest=" then i else last (i - 1) in
  let at = last (String.length contents - 8) in
  let h = Wire.Hash.create () in
  Wire.Hash.feed h contents ~pos:0 ~len:at;
  String.sub contents 0 at ^ " digest=" ^ Wire.Hash.digest h ^ "\n"

(* Byte 10 of line 2's state replaced by [c]. *)
let in_state c contents =
  let rec find i = if String.sub contents i 6 = "state=" then i + 6 else find (i + 1) in
  let k = find (String.index contents '\n') + 10 in
  String.mapi (fun i b -> if i = k then c else b) contents

(* Line 2 damaged by [edit]: the checkpoint stays unreadable whatever
   the digest says, the restore quarantines it (tier 2) with a notice
   that names the file and [why], and replays the journal from the
   previous checkpoint to the straight line of every op. *)
let line_two_unreadable case edit why =
  with_fixture_dir case @@ fun dir ->
  let cpath = Filename.concat dir "checkpoint.json" in
  let bad = edit (read_file cpath) in
  write_file cpath bad;
  let h, s, _, _ = restore_counting dir in
  Alcotest.(check int) (case ^ ": tier 2") 1
    (counter_of h "serve_recovery_checkpoint_quarantined");
  Alcotest.(check int) (case ^ ": no torn tail") 0 (counter_of h "serve_recovery_torn_tail");
  let named = "unreadable checkpoint (checkpoint " ^ cpath ^ ": " in
  if not (List.exists (fun m -> contains named m && contains why m) (Server.session_notices s))
  then
    Alcotest.failf "%s: no notice names %s and %S: %s" case cpath why
      (String.concat " | " (Server.session_notices s));
  Alcotest.(check string) (case ^ ": quarantined as it was") bad (read_file (cpath ^ ".corrupt-1"));
  Alcotest.(check bool) (case ^ ": the straight line") true
    (Snapshot.equal (Server.session_snapshot s) (Torture.straight_line torture_config torture_ops));
  Server.abandon_session h s

(* The Wire code holds no blank and no newline: one inside the state is
   refused by the decoder, not taken for a field or line boundary. *)
let test_line_two_blank_in_state () =
  line_two_unreadable "blank-in-state"
    (fun c -> redigest (in_state ' ' c))
    "machine state: a byte outside the int code";
  line_two_unreadable "newline-in-state"
    (fun c -> redigest (in_state '\n' c))
    "machine state: a byte outside the int code"

let test_line_two_no_digest () =
  line_two_unreadable "no-digest"
    (fun c ->
      let rec last i = if String.sub c i 8 = " digest=" then i else last (i - 1) in
      String.sub c 0 (last (String.length c - 8)) ^ "\n")
    "line 2: malformed field"

let test_line_two_trailing_bytes () =
  line_two_unreadable "trailing" (fun c -> c ^ "serve_machine 2\n") "line 2: trailing bytes after it"

let test_line_two_version_one () =
  line_two_unreadable "version-one"
    (fun c ->
      let at = String.index c '\n' + 1 in
      redigest
        (String.sub c 0 at ^ "serve_machine 1"
        ^ String.sub c (at + 15) (String.length c - at - 15)))
    "line 2: version 1"

(* A kill between a checkpoint's open and its rename leaves a temp file
   named after the dead process; restore removes it. *)
let test_stale_temp_removed () =
  with_fixture_dir "staletmp" @@ fun dir ->
  let stale = Filename.concat dir "checkpoint.json.tmp.99999" in
  write_file stale "serve_state, half writ";
  let v = restore_case "stale-temp" dir in
  Alcotest.(check int) "tier 0" 0 v.Torture.tier;
  Alcotest.(check bool) "stale temp removed" false (Sys.file_exists stale)

(* The commit reuses the two files it rotates: once a session has two
   checkpoints, later ones create no file, so [checkpoint.json] and
   [.prev] keep the same two inodes, and so do the journal's two
   segments, each rotation taking the file of the one it retires.  Descriptors held open on both pin
   them, so a commit that creates a file cannot get one of their inode
   numbers back.  The checkpoints shrink as the fed-ahead arrivals
   drain, so a commit that skipped its truncate would leave the tail
   of the longer file it overwrote. *)
let test_commit_reuses_files () =
  with_temp_dir "reuse" @@ fun dir ->
  let h =
    Server.host
      { torture_config with checkpoint_dir = Some dir; checkpoint_every = 0 }
  in
  let s = Server.open_session h Server.default_session in
  let cpath = Filename.concat dir "checkpoint.json" in
  let ppath = cpath ^ ".prev" in
  let checkpoint () =
    ignore (Server.checkpoint_session h s);
    String.length (read_file cpath)
  in
  (* 24 rounds of arrivals fed ahead, then drained 10 rounds a time *)
  apply_all h s
    (List.init 24 (fun i ->
         Journal.Submit { round = 4 + i; color = i mod 4; count = 1 + (i mod 3) }));
  let first = checkpoint () in
  apply_all h s [ Journal.Step 1 ];
  let second = checkpoint () in
  let id (st : Unix.stats) = (st.Unix.st_dev, st.Unix.st_ino) in
  let segments () = List.sort compare (List.map (fun p -> id (Unix.stat p)) (segment_files dir)) in
  let pinned =
    List.map (fun p -> Unix.openfile p [ Unix.O_RDONLY ] 0) (cpath :: ppath :: segment_files dir)
  in
  Fun.protect ~finally:(fun () -> List.iter Unix.close pinned) @@ fun () ->
  let pair = List.sort compare (List.map (fun p -> id (Unix.stat p)) [ cpath; ppath ]) in
  let segment_pair = segments () in
  Alcotest.(check int) "two segments" 2 (List.length segment_pair);
  let sizes = ref [ second; first ] and shrunk = ref false in
  for k = 1 to 5 do
    apply_all h s [ Journal.Step 10 ];
    let size = checkpoint () in
    (* this commit overwrote the checkpoint before last *)
    if size < List.nth !sizes 1 then shrunk := true;
    sizes := size :: !sizes;
    let label what = Printf.sprintf "checkpoint %d: %s" (k + 2) what in
    Alcotest.(check bool) (label "same two inodes") true
      (pair = List.sort compare (List.map (fun p -> id (Unix.stat p)) [ cpath; ppath ]));
    Alcotest.(check bool) (label "the journal's two segment files reused") true
      (segment_pair = segments ());
    Alcotest.(check (list string)) (label "no temp file left") []
      (List.filter
         (String.starts_with ~prefix:"checkpoint.json.tmp.")
         (Array.to_list (Sys.readdir dir)));
    Alcotest.(check int) (label "two lines, nothing after them") 2
      (String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 (read_file cpath));
    Alcotest.(check bool) (label "ends with its newline") true
      (String.ends_with ~suffix:"\n" (read_file cpath))
  done;
  Alcotest.(check bool) "a commit overwrote a longer checkpoint" true !shrunk;
  Server.abandon_session h s;
  let h2, s2, replayed, _ = restore_counting dir in
  Alcotest.(check int) "the last checkpoint verifies" 0 replayed;
  Alcotest.(check bool) "and restores the session" true
    (Snapshot.equal (Server.session_snapshot s2) (Server.session_snapshot s));
  Server.abandon_session h2 s2

(* Every directory layout a commit passes through, built by hand from
   three checkpoints of one history ([a] before [b] before [c], each
   [checkpoint_every] ops apart) and a journal at [c], as a kill at
   that point leaves it.  Restore starts from the newest checkpoint
   among [checkpoint.json] and [.prev], replays at most two intervals,
   lands on the straight line, and removes the temp file. *)
let test_commit_crash_windows () =
  let every = torture_config.Server.checkpoint_every in
  let ops = Torture.ops_of_seed ~count:(8 * every) ~colors:4 11 in
  let a, b, c, journal, fed =
    with_temp_dir "windows_src" @@ fun dir ->
    let h =
      Server.host
        { torture_config with checkpoint_dir = Some dir; checkpoint_every = 0 }
    in
    let s = Server.open_session h Server.default_session in
    let rest = ref ops and fed = ref [] in
    let checkpoint_at target =
      while Server.session_ops s < target do
        match !rest with
        | op :: tl ->
            rest := tl;
            fed := op :: !fed;
            apply_all h s [ op ]
        | [] -> Alcotest.fail "the history ran out of ops"
      done;
      ignore (Server.checkpoint_session h s);
      (Server.session_ops s, read_file (Filename.concat dir "checkpoint.json"))
    in
    let a = checkpoint_at (2 * every) in
    let b = checkpoint_at (3 * every) in
    let c = checkpoint_at (4 * every) in
    Server.abandon_session h s;
    let segments =
      List.map (fun path -> (Filename.basename path, read_file path)) (segment_files dir)
    in
    (a, b, c, segments, List.rev !fed)
  in
  let expected = Torture.straight_line torture_config fed in
  let half_written =
    (* [c]'s first half over [a]'s bytes, as an in-place write leaves it *)
    let c = snd c and a = snd a in
    let k = String.length c / 2 in
    String.sub c 0 k ^ if String.length a > k then String.sub a k (String.length a - k) else ""
  in
  let temp = "checkpoint.json.tmp.99999" in
  List.iter
    (fun (layout, files, (start, _)) ->
      with_temp_dir "window" @@ fun dir ->
      List.iter (fun (name, bytes) -> write_file (Filename.concat dir name) bytes) journal;
      List.iter (fun (name, bytes) -> write_file (Filename.concat dir name) bytes) files;
      let h, s, replayed, _ = restore_counting dir in
      let label what = Printf.sprintf "%s: %s" layout what in
      Alcotest.(check int) (label "starts from the newest checkpoint present")
        (expected.Snapshot.ops - start) replayed;
      Alcotest.(check bool)
        (label (Printf.sprintf "%d ops replayed, at most %d" replayed (2 * every)))
        true
        (replayed <= 2 * every);
      Alcotest.(check bool) (label "restored = straight line") true
        (Snapshot.equal (Server.session_snapshot s) expected);
      Alcotest.(check bool) (label "temp file removed") false
        (Sys.file_exists (Filename.concat dir temp));
      Server.abandon_session h s)
    [
      ( "after step 1 (.prev is the temp)",
        [ ("checkpoint.json", snd b); (temp, snd a) ],
        b );
      ( "during step 2 (half-written temp)",
        [ ("checkpoint.json", snd b); (temp, half_written) ],
        b );
      ( "after step 3 (complete temp, no checkpoint.json)",
        [ ("checkpoint.json.prev", snd b); (temp, snd c) ],
        b );
      ( "after step 4 (committed)",
        [ ("checkpoint.json", snd c); ("checkpoint.json.prev", snd b) ],
        c );
    ]

(* A fault inside a command wedges its session, and the shutdown drain
   then closes every session, the wedged one included.  Its in-memory
   state is untrusted (the faulted op was applied, never journaled), so
   it must not be checkpointed: the restart restores the acked op from
   the journal with nothing quarantined and nothing refused. *)
let test_wedged_session_not_checkpointed () =
  with_temp_dir "wedged" @@ fun dir ->
  let config =
    { torture_config with checkpoint_dir = Some dir; checkpoint_every = 0 }
  in
  let plan =
    Rrs_fault.plan ~sleep:ignore
      [ Rrs_fault.fail_on ~transient:true "serve.journal" (Rrs_fault.Nth 2) ]
  in
  let code, output =
    Rrs_fault.with_plan plan (fun () ->
        run_server config "submit 0 1 2\nsubmit 0 2 1\n")
  in
  Alcotest.(check int) "exit" 0 code;
  Alcotest.(check bool) "the second submit faulted" true
    (List.exists (String.starts_with ~prefix:"err transient fault injected at serve.journal") output);
  let metrics = Rrs_obs.Metrics.create () in
  let h = Server.host { config with metrics = Some metrics } in
  let s =
    match Server.open_session h Server.default_session with
    | s -> s
    | exception Server.Corrupt d -> Alcotest.failf "restart refused: %s" d
  in
  let count name = Rrs_obs.Metrics.value (Rrs_obs.Metrics.counter metrics name) in
  Alcotest.(check int) "nothing quarantined" 0
    (count "serve_recovery_checkpoint_quarantined");
  Alcotest.(check int) "nothing refused" 0 (count "serve_recovery_refused");
  Alcotest.(check bool) "restored = the acked op" true
    (Snapshot.equal (Server.session_snapshot s)
       (Torture.straight_line torture_config
          [ Journal.Submit { round = 0; color = 1; count = 2 } ]));
  let cpath = Filename.concat dir "checkpoint.json" in
  Alcotest.(check bool) "no checkpoint of the wedged state" false
    (Sys.file_exists cpath);
  (* an explicit checkpoint of a wedged session is refused like a
     mutation, and writes nothing *)
  Server.wedge s "probe";
  (match Server.exec h s Protocol.Checkpoint with
  | Server.Reply [ line ] ->
      Alcotest.(check bool) line true
        (String.starts_with ~prefix:"err session default wedged (probe)" line)
  | _ -> Alcotest.fail "checkpoint: not a one-line reply");
  Alcotest.(check bool) "still no checkpoint" false (Sys.file_exists cpath);
  Server.abandon_session h s

(* A served heartbeat counts only the rounds stepped after a restart:
   restore replays the journal on Sink.null, and the session gets the
   heartbeat's attach only once it is open. *)
let test_heartbeat_skips_replay () =
  with_temp_dir "hb_replay" @@ fun dir ->
  let config = { torture_config with checkpoint_every = 0 } in
  Torture.build_fixture config torture_ops dir;
  let hb = Rrs_obs.Heartbeat.create ~every_rounds:1 () in
  let h =
    Server.host { config with checkpoint_dir = Some dir; heartbeat = Some hb }
  in
  let s = Server.open_session h Server.default_session in
  Alcotest.(check bool) "the restore replayed rounds" true
    ((Server.session_snapshot s).Snapshot.round > 0);
  Alcotest.(check int) "no replayed round observed" 0
    (Rrs_obs.Heartbeat.rounds_observed hb);
  (match Server.exec h s (Protocol.Step 3) with
  | Server.Reply [ line ] when String.starts_with ~prefix:"ok" line -> ()
  | _ -> Alcotest.fail "step 3 refused");
  Alcotest.(check int) "the live rounds observed" 3
    (Rrs_obs.Heartbeat.rounds_observed hb);
  Server.abandon_session h s

(* The diagnostic printer shows every field [Snapshot.equal] compares:
   two snapshots that differ in any one of them print differently. *)
let test_pp_snapshot_every_field () =
  let s = Torture.straight_line torture_config torture_ops in
  let show s = Format.asprintf "%a" Torture.pp_snapshot s in
  let bump a = Array.append a [| 1 |] in
  List.iter
    (fun (field, (s' : Snapshot.t)) ->
      Alcotest.(check bool) (field ^ " differs") false (Snapshot.equal s s');
      Alcotest.(check bool) (field ^ " prints differently") true (show s <> show s'))
    [
      ("version", { s with version = s.version + 1 });
      ("ops", { s with ops = s.ops + 1 });
      ("round", { s with round = s.round + 1 });
      ("n", { s with n = s.n + 1 });
      ("delta", { s with delta = s.delta + 1 });
      ("delay", { s with delay = bump s.delay });
      ("reconfigurations", { s with reconfigurations = s.reconfigurations + 1 });
      ("reconfig_cost", { s with reconfig_cost = s.reconfig_cost + 1 });
      ("executed", { s with executed = s.executed + 1 });
      ("dropped", { s with dropped = s.dropped + 1 });
      ("pending_jobs", { s with pending_jobs = s.pending_jobs + 1 });
      ("future_arrivals", { s with future_arrivals = s.future_arrivals + 1 });
      ("cache", { s with cache = bump s.cache });
    ]

(* ---- torture campaign smoke (full campaigns run in bench/torture) - *)

let test_torture_smoke () =
  let check name verdicts =
    let s = Torture.summarize verdicts in
    List.iter
      (fun (v : Torture.verdict) ->
        if not v.Torture.contained then
          Alcotest.failf "%s: %s uncontained: %s" name v.Torture.case
            v.Torture.detail)
      verdicts;
    Alcotest.(check int) (name ^ " divergences") 0 s.Torture.divergences;
    Alcotest.(check int) (name ^ " uncontained") 0 s.Torture.uncontained
  in
  let dir = temp_dir "campaign" in
  Fun.protect ~finally:(fun () -> rm_rf_deep dir) @@ fun () ->
  let ops = torture_ops in
  check "truncate"
    (Torture.journal_truncate_campaign ~stride:23 torture_config ~ops ~dir);
  check "flip"
    (Torture.journal_flip_campaign ~stride:23 torture_config ~ops ~dir);
  check "dup" (Torture.journal_dup_campaign torture_config ~ops ~dir);
  check "edit" (Torture.journal_edit_campaign torture_config ~ops ~dir);
  check "reorder" (Torture.journal_reorder_campaign torture_config ~ops ~dir);
  check "boundary" (Torture.segment_boundary_campaign torture_config ~ops ~dir);
  check "presence" (Torture.segment_presence_campaign torture_config ~ops ~dir);
  check "rotation" (Torture.kill_rotation_campaign torture_config ~ops ~dir);
  check "checkpoint"
    (Torture.checkpoint_campaign ~stride:11 torture_config ~ops ~dir);
  check "prefix" (Torture.prefix_campaign ~torn:false torture_config ~ops ~dir);
  check "prefix-torn"
    (Torture.prefix_campaign ~torn:true torture_config ~ops ~dir)

(* ---- the session table (QCheck against a list model) ------------- *)

(* The table is a hash keyed by name plus an insertion sequence; the
   model is the plain insertion-ordered association list it replaced.
   Random open / attach / step / wedge(+reopen) / abandon / close
   sequences must agree on lookups, on the order of [sessions] and on
   the [sessions] reply, byte for byte.

   With [dir] the sessions are durable, and the model also keeps, for
   every name ever opened, its journaled round and op count and the
   replay work since its last checkpoint.  The model's sessions hold
   no job, so a [step k] adds k + 1 units; a close and a leave with at
   least [num_colors] units checkpoint.  A session reopened after an
   abandon or a wedge is restored and must replay exactly that work, so
   one left with [num_colors] units or more replays none; at the end
   every session is restored once more on a fresh host. *)

type table_op =
  | T_open of int
  | T_attach of int
  | T_step of int
  | T_wedge of int
  | T_abandon of int
  | T_close of int

let table_name i = Printf.sprintf "s%d" i
let table_names = List.init 5 table_name

let table_op_gen =
  let open QCheck.Gen in
  let name = 0 -- 4 in
  frequency
    [
      (4, map (fun i -> T_open i) name);
      (2, map (fun i -> T_attach i) name);
      (4, map (fun k -> T_step k) (1 -- 3));
      (2, map (fun i -> T_wedge i) name);
      (1, map (fun i -> T_abandon i) name);
      (1, map (fun i -> T_close i) name);
    ]

let print_table_op = function
  | T_open i -> "open " ^ table_name i
  | T_attach i -> "attach " ^ table_name i
  | T_step k -> Printf.sprintf "step %d" k
  | T_wedge i -> "wedge " ^ table_name i
  | T_abandon i -> "abandon " ^ table_name i
  | T_close i -> "close " ^ table_name i

(* model entry: name, (round, ops, wedged) *)
let model_line (name, (round, ops, wedged)) =
  Printf.sprintf "ok %s round=%d ops=%d pending=0%s" name round ops
    (if wedged then " wedged" else "")

let run_table_ops ?dir ops =
  let config = { Server.default_config with checkpoint_dir = dir } in
  let durable = dir <> None in
  let colors = Array.length config.delay in
  let h = Server.host config in
  let model = ref [] in
  (* name -> journaled round and ops, replay work since the last
     checkpoint *)
  let disk = Hashtbl.create 8 in
  let leaves = ref 0 in
  let replace name entry =
    model := List.remove_assoc name !model @ [ (name, entry) ]
  in
  (* a (re)opened session: a durable one is restored from its journal,
     replaying the work since its last checkpoint *)
  let reopened name ~replayed =
    let round, ops, work =
      match Hashtbl.find_opt disk name with
      | Some entry when durable -> entry
      | _ -> (0, 0, 0)
    in
    if durable then
      Alcotest.(check int)
        (Printf.sprintf "open %s: the work since its last checkpoint replayed"
           name)
        work replayed;
    Hashtbl.replace disk name (round, ops, work);
    replace name (round, ops, false)
  in
  (* the connection left [from] for the session named [name] *)
  let left from name =
    match from with
    | Some f when Server.session_name f <> name -> (
        let from = Server.session_name f in
        match (List.assoc_opt from !model, Hashtbl.find_opt disk from) with
        | Some (_, _, false), Some (round, ops, work) when work >= colors ->
            incr leaves;
            Hashtbl.replace disk from (round, ops, 0)
        | _ -> ())
    | _ -> ()
  in
  let cur = ref None in
  (* with no current session, address the table through one that
     never joins it *)
  let outsider =
    lazy (Server.open_session (Server.host Server.default_config) "x")
  in
  let exec cmd =
    let current =
      match !cur with Some s -> s | None -> Lazy.force outsider
    in
    Server.exec h current cmd
  in
  let check op =
    let where = print_table_op op in
    List.iter
      (fun name ->
        Alcotest.(check (option string))
          (where ^ ": find " ^ name)
          (Option.map (fun _ -> name) (List.assoc_opt name !model))
          (Option.map Server.session_name (Server.find_session h name)))
      table_names;
    Alcotest.(check (list string))
      (where ^ ": sessions order")
      (List.map fst !model)
      (List.map Server.session_name (Server.sessions h));
    match exec Rrs_service.Protocol.Sessions with
    | Server.Reply lines ->
        Alcotest.(check (list string))
          (where ^ ": sessions reply")
          (Printf.sprintf "ok sessions %d" (List.length !model)
          :: List.map model_line !model)
          lines
    | _ -> Alcotest.fail "sessions: not a reply"
  in
  List.iter
    (fun op ->
      (match op with
      | T_open i -> (
          let name = table_name i in
          let before = counter_of h "serve_restore_replayed_work" in
          match exec (Rrs_service.Protocol.Open name) with
          | Server.Switch (s, _) ->
              (match List.assoc_opt name !model with
              | Some (_, _, false) -> ()
              | _ ->
                  reopened name
                    ~replayed:(counter_of h "serve_restore_replayed_work" - before));
              left !cur name;
              cur := Some s
          | Server.Reply lines -> (
              (* already current *)
              match List.assoc_opt name !model with
              | Some (_, _, false) -> ()
              | _ ->
                  Alcotest.failf "open %s refused: %s" name
                    (String.concat " / " lines))
          | _ -> Alcotest.fail "open: unexpected outcome")
      | T_attach i -> (
          let name = table_name i in
          match exec (Rrs_service.Protocol.Attach name) with
          | Server.Switch (s, _) ->
              if not (List.mem_assoc name !model) then
                Alcotest.failf "attach %s: not in the model" name;
              left !cur name;
              cur := Some s
          | _ ->
              if List.mem_assoc name !model then
                Alcotest.failf "attach %s refused" name)
      | T_step k -> (
          match !cur with
          | Some s when List.mem_assoc (Server.session_name s) !model -> (
              let name = Server.session_name s in
              let round, ops, wedged = List.assoc name !model in
              match exec (Rrs_service.Protocol.Step k) with
              | Server.Reply [ line ] ->
                  if wedged then
                    Alcotest.(check bool) "wedged refuses" true (line.[0] = 'e')
                  else begin
                    Alcotest.(check bool) "step acked" true (line.[0] = 'o');
                    model :=
                      List.map
                        (fun (n, e) ->
                          if n = name then (n, (round + k, ops + 1, false))
                          else (n, e))
                        !model;
                    let _, _, work = Hashtbl.find disk name in
                    let work = work + k + 1 in
                    Hashtbl.replace disk name
                      ( round + k,
                        ops + 1,
                        if work >= config.checkpoint_every then 0 else work )
                  end
              | _ -> Alcotest.fail "step: unexpected outcome")
          | _ -> ())
      | T_wedge i -> (
          let name = table_name i in
          match Server.find_session h name with
          | Some s ->
              Server.wedge s "model";
              model :=
                List.map
                  (fun (n, (r, o, w)) -> (n, (r, o, w || n = name)))
                  !model
          | None -> ())
      | T_abandon i | T_close i -> (
          let name = table_name i in
          match Server.find_session h name with
          | Some s ->
              (match op with
              | T_close _ ->
                  ignore (Server.close_session h s);
                  (* a wedged session is closed without a checkpoint *)
                  let round, ops, work = Hashtbl.find disk name in
                  if Server.session_wedged s = None then
                    Hashtbl.replace disk name (round, ops, 0)
                  else Hashtbl.replace disk name (round, ops, work)
              | _ -> Server.abandon_session h s);
              model := List.remove_assoc name !model;
              if Option.map Server.session_name !cur = Some name then
                cur := None
          | None -> ()));
      check op)
    ops;
  List.iter (Server.abandon_session h) (Server.sessions h);
  if durable then begin
    Alcotest.(check int) "one leave checkpoint per leave with C units" !leaves
      (counter_of h "serve_leave_checkpoints");
    let h = Server.host config in
    Hashtbl.iter
      (fun name (round, ops, work) ->
        let before = counter_of h "serve_restore_replayed_work" in
        let s = Server.open_session h name in
        Alcotest.(check int)
          (name ^ ": a restart replays the work since its last checkpoint")
          work
          (counter_of h "serve_restore_replayed_work" - before);
        let snapshot = Server.session_snapshot s in
        Alcotest.(check (pair int int))
          (name ^ ": restored round and ops")
          (round, ops)
          (snapshot.Snapshot.round, snapshot.Snapshot.ops);
        Server.abandon_session h s)
      disk
  end;
  true

let table_program =
  QCheck.make
    ~print:(fun ops -> String.concat "; " (List.map print_table_op ops))
    QCheck.Gen.(list_size (0 -- 40) table_op_gen)

let prop_session_table_model =
  QCheck.Test.make ~count:300 ~name:"session table matches the list model"
    table_program
    (fun ops -> run_table_ops ops)

let prop_durable_session_table_model =
  QCheck.Test.make ~count:150
    ~name:"durable session table: a restore replays the unsaved work"
    table_program
    (fun ops -> with_temp_dir "table" @@ fun dir -> run_table_ops ~dir ops)

let () =
  Alcotest.run "service"
    [
      ( "protocol",
        [
          Alcotest.test_case "parse" `Quick test_protocol_parse;
          Alcotest.test_case "canonical round-trip" `Quick
            test_protocol_roundtrip;
          QCheck_alcotest.to_alcotest prop_add_command_oracle;
          QCheck_alcotest.to_alcotest prop_parse_arbitrary_bytes;
          QCheck_alcotest.to_alcotest prop_parse_near_miss;
          QCheck_alcotest.to_alcotest prop_tokenizer_reference;
        ] );
      ( "streamed session",
        [
          Alcotest.test_case "families identical to batch" `Quick
            test_stream_families;
          Alcotest.test_case "feed order irrelevant" `Quick
            test_stream_feed_order;
          Alcotest.test_case "reductions identical to batch" `Quick
            test_stream_reductions;
          Alcotest.test_case "feed guards" `Quick test_feed_guards;
          Alcotest.test_case "round limit refuses whole" `Quick
            test_round_limit;
          Alcotest.test_case "deadline limit over the protocol" `Quick
            test_deadline_limit_served;
          Alcotest.test_case "reconfigure guards" `Quick
            test_reconfigure_guards;
          Alcotest.test_case "scale guard" `Quick test_scale_guard;
          Alcotest.test_case "bounded state" `Quick test_bounded_state;
          Alcotest.test_case "a trace prices a Δ change" `Quick
            test_trace_prices_delta_changes;
          Alcotest.test_case "heartbeat write failure keeps stepping" `Quick
            test_heartbeat_write_failure;
        ] );
      ( "checkpoint/restore",
        [
          QCheck_alcotest.to_alcotest prop_snapshot_roundtrip;
          QCheck_alcotest.to_alcotest prop_snapshot_line_is_json;
          Alcotest.test_case "kill at round k, restore, finish" `Quick
            test_kill_restore_families;
          Alcotest.test_case "command fault contained" `Quick
            test_command_fault;
          Alcotest.test_case "prefix checkpoint + suffix replay" `Quick
            test_prefix_replay;
          Alcotest.test_case "snapshot printer shows every field" `Quick
            test_pp_snapshot_every_field;
        ] );
      ( "tiered recovery",
        [
          Alcotest.test_case "torn tail reports its byte offset" `Quick
            test_torn_tail_offset;
          Alcotest.test_case "corrupt checkpoint quarantined" `Quick
            test_checkpoint_quarantine;
          Alcotest.test_case "corrupt journal body refuses" `Quick
            test_journal_body_refuses;
          Alcotest.test_case "previous checkpoint arbitrates" `Quick
            test_prev_checkpoint_arbitration;
          Alcotest.test_case "journal positions hash the bytes" `Quick
            test_journal_positions;
          Alcotest.test_case "fast path = full replay" `Quick
            test_fast_path_equals_full_replay;
          Alcotest.test_case "journal flip below a checkpoint refuses" `Quick
            test_flip_below_checkpoint_refuses;
          Alcotest.test_case "corrupt machine state quarantined" `Quick
            test_corrupt_machine_state_quarantined;
          Alcotest.test_case "line 2: a blank or newline in the state" `Quick
            test_line_two_blank_in_state;
          Alcotest.test_case "line 2: no digest" `Quick test_line_two_no_digest;
          Alcotest.test_case "line 2: bytes after it" `Quick
            test_line_two_trailing_bytes;
          Alcotest.test_case "line 2: serve_machine 1" `Quick
            test_line_two_version_one;
          Alcotest.test_case "stale checkpoint temp removed" `Quick
            test_stale_temp_removed;
          Alcotest.test_case "the commit reuses its two files" `Quick
            test_commit_reuses_files;
          Alcotest.test_case "every commit crash window restores" `Quick
            test_commit_crash_windows;
          Alcotest.test_case "a torn line before a segment refuses" `Quick
            test_torn_line_before_a_segment_refuses;
          Alcotest.test_case "lone divergence refuses" `Quick
            test_lone_divergence_refuses;
          Alcotest.test_case "corrupt current checkpoint starts from .prev"
            `Quick test_corrupt_current_starts_from_prev;
          Alcotest.test_case "a restore reads only its checkpoint's segment"
            `Quick test_restore_reads_one_segment;
          Alcotest.test_case "a restore reads each file once" `Quick
            test_restore_reads_each_file_once;
          Alcotest.test_case "loaded step is never replayed" `Quick
            test_loaded_step_never_replayed;
          QCheck_alcotest.to_alcotest prop_restore_replays_less_than_every;
          Alcotest.test_case "left session restores without replay" `Quick
            test_left_session_restores_without_replay;
          Alcotest.test_case "alternating sessions: one checkpoint per C units"
            `Quick test_alternating_sessions_checkpoint_per_colors;
          Alcotest.test_case "no leave checkpoint with checkpoint_every 0"
            `Quick test_no_leave_checkpoint_when_off;
          Alcotest.test_case "a failed leave checkpoint is contained" `Quick
            test_failed_leave_checkpoint_contained;
          Alcotest.test_case "a line-1-only checkpoint is quarantined" `Quick
            test_line_one_only_quarantined;
          Alcotest.test_case "a wedged session is never checkpointed" `Quick
            test_wedged_session_not_checkpointed;
          Alcotest.test_case "a served heartbeat skips replayed rounds" `Quick
            test_heartbeat_skips_replay;
          Alcotest.test_case "torture campaigns (sampled)" `Quick
            test_torture_smoke;
        ] );
      ( "journal v2",
        [
          Alcotest.test_case "op lines are protocol lines" `Quick
            test_op_lines_roundtrip;
          Alcotest.test_case "unterminated final line is torn" `Quick
            test_unterminated_tail_torn;
          Alcotest.test_case "only canonical ops" `Quick test_only_canonical_ops;
          Alcotest.test_case "corrupt body keeps the checkpoint" `Quick
            test_corrupt_body_keeps_checkpoint;
          Alcotest.test_case "version-1 journal refused" `Quick
            test_v1_journal_refused;
          Alcotest.test_case "version-2 journal refused" `Quick
            test_v2_journal_refused;
          Alcotest.test_case "body is a serve script" `Quick
            test_body_is_serve_script;
          Alcotest.test_case "writer bytes = header + op lines" `Quick
            test_writer_bytes;
          Alcotest.test_case "a failed append keeps the anchor" `Quick
            test_failed_append_keeps_anchor;
          QCheck_alcotest.to_alcotest prop_reader_matches_oracle;
        ] );
      ( "session table",
        [
          QCheck_alcotest.to_alcotest prop_session_table_model;
          QCheck_alcotest.to_alcotest prop_durable_session_table_model;
        ] );
    ]
