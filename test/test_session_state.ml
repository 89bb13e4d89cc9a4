(* Full-state checkpoints of Engine.Session: saving a session at any
   point, loading it and replaying the rest of the calls lands on the
   state of the run that never stopped, for every workload family and
   every policy the service runs, uni- and double-speed — including
   after a mid-stream reconfiguration of n, Δ and a delay bound. *)

open Rrs_core
module Session = Engine.Session
module Families = Rrs_workload.Families

type call =
  | Feed of int * int * int  (** round, color, count *)
  | Step
  | Reconfigure of int * int * (int * int)  (** n, Δ, (color, delay) *)

let save_string s =
  let w = Wire.writer () in
  Session.save s w;
  Wire.contents w

let load_string ~mini_rounds factory s =
  match
    Session.load (Engine.config ~mini_rounds ~n:8 ()) factory
      (Wire.reader s ~pos:0 ~stop:(String.length s))
  with
  | Ok t -> t
  | Error e -> Alcotest.failf "load: %s" e

let apply s = function
  | Feed (round, color, count) -> (
      match Session.feed s ~round ~color ~count with
      | Ok () -> ()
      | Error e -> Alcotest.failf "feed: %s" (Session.string_of_feed_error e))
  | Step -> Session.step s
  | Reconfigure (n, delta, delay) ->
      (* a refusal (e.g. a shrunk bound over pending jobs) leaves the
         session unchanged on both sides alike *)
      ignore (Session.reconfigure s ~n ~delta ~delay:[ delay ] ())

(* The first [rounds] rounds of a family instance as session calls:
   every arrival is fed [lead] rounds ahead of its round (so the
   future-arrival buckets are live at every step), then the round is
   stepped; one reconfiguration lands before round [at]. *)
let calls_of (instance : Instance.t) ~rounds ~lead ~at ~reconfig =
  let by_round = Instance.arrivals_by_round instance in
  let batch r =
    if r < Array.length by_round then
      List.map (fun (color, count) -> Feed (r, color, count)) by_round.(r)
    else []
  in
  List.concat
    (List.init (min lead rounds) batch
    @ List.init rounds (fun r ->
           (if r = at then [ reconfig ] else [])
           @ (if r + lead < rounds then batch (r + lead) else [])
           @ [ Step ]))

let families = Array.of_list Families.all
let policies = Array.of_list Rrs_service.Server.policies
let instances = Hashtbl.create 16

let instance_of i =
  match Hashtbl.find_opt instances i with
  | Some inst -> inst
  | None ->
      let inst = families.(i).Families.build ~seed:1 in
      Hashtbl.add instances i inst;
      inst

let rec split k = function
  | x :: rest when k > 0 ->
      let a, b = split (k - 1) rest in
      (x :: a, b)
  | l -> ([], l)

let case_gen =
  QCheck.Gen.(
    tup4
      (pair (int_bound (Array.length families - 1)) (int_bound (Array.length policies - 1)))
      (pair (pair (int_range 0 2) (int_range 1 2)) (float_range 0. 1.))
      (pair (int_range 0 159) (oneofl [ 4; 8; 12 ]))
      (pair (int_range 1 6) (pair (int_bound 1000) (int_range 1 5))))

let print_case ((f, p), ((lead, mini_rounds), frac), (at, n), (delta, (color, grow))) =
  Printf.sprintf
    "family %s, policy %s, %d mini-round(s), lead %d, cut at %.3f, \
     reconfigure before round %d to n=%d delta=%d delay(color %d)+=%d"
    families.(f).Families.id (fst policies.(p)) mini_rounds lead frac at n delta
    color grow

let prop_save_load_suffix =
  QCheck.Test.make ~count:150
    ~name:"save, load, replay the suffix = the straight line (12 families x 8 policies)"
    (QCheck.make ~print:print_case case_gen)
    (fun ((f, p), ((lead, mini_rounds), frac), (at, n), (delta, (color, grow))) ->
      let instance = instance_of f in
      let factory = snd policies.(p) in
      let color = color mod instance.num_colors in
      let reconfig =
        Reconfigure (n, delta, (color, instance.delay.(color) + grow))
      in
      let calls = calls_of instance ~rounds:160 ~lead ~at ~reconfig in
      let fresh () =
        Session.create (Engine.config ~mini_rounds ~n:8 ()) ~delta:instance.delta
          ~delay:instance.delay factory
      in
      let straight = fresh () in
      List.iter (apply straight) calls;
      let prefix, suffix =
        split (int_of_float (frac *. float_of_int (List.length calls))) calls
      in
      let cut = fresh () in
      List.iter (apply cut) prefix;
      let saved = save_string cut in
      let loaded = load_string ~mini_rounds factory saved in
      (* save . load . save = save *)
      if save_string loaded <> saved then
        QCheck.Test.fail_report "the loaded state saves different bytes";
      List.iter (apply loaded) suffix;
      if save_string loaded <> save_string straight then
        QCheck.Test.fail_report "prefix + load + suffix differs from the straight line";
      Session.cost loaded = Session.cost straight
      && Session.cache loaded = Session.cache straight)

(* ---- the running future-arrival count ----------------------------- *)

(* The oracle: the walk [future_arrivals] used to make, over what was
   fed (or preloaded) for the current round or later. *)
let fold_future arrivals ~round =
  List.fold_left
    (fun acc (r, count) -> if r >= round then acc + count else acc)
    0 arrivals

type future_op =
  | Feed_ahead of int * int * int  (** rounds ahead, color, count *)
  | Step_once
  | Reconfigure_once of int * int * int  (** n, Δ, delay growth *)
  | Save_load

let print_future_op = function
  | Feed_ahead (ahead, color, count) ->
      Printf.sprintf "feed +%d %d %d" ahead color count
  | Step_once -> "step"
  | Reconfigure_once (n, delta, grow) ->
      Printf.sprintf "reconfigure n=%d delta=%d delay+%d" n delta grow
  | Save_load -> "save/load"

let future_op_gen =
  QCheck.Gen.(
    frequency
      [
        ( 5,
          map3
            (fun a c k -> Feed_ahead (a, c, k))
            (int_range 0 9) (int_bound 1000) (int_range 1 5) );
        (4, return Step_once);
        ( 1,
          map3
            (fun n d g -> Reconfigure_once (n, d, g))
            (oneofl [ 4; 8 ]) (int_range 1 6) (int_range 0 3) );
        (1, return Save_load);
      ])

let prop_future_arrivals =
  QCheck.Test.make ~count:200
    ~name:"future_arrivals = the fold over arrivals still to come"
    QCheck.(
      make
        ~print:(fun (p, ops) ->
          fst policies.(p) ^ ": "
          ^ String.concat "; " (List.map print_future_op ops))
        Gen.(
          pair
            (int_bound (Array.length policies - 1))
            (list_size (0 -- 120) future_op_gen)))
    (fun (p, ops) ->
      let instance = instance_of 0 in
      let factory = snd policies.(p) in
      let s =
        ref
          (Session.create (Engine.config ~n:8 ()) ~delta:instance.delta
             ~delay:instance.delay factory)
      in
      let fed = ref [] in
      List.for_all
        (fun op ->
          (match op with
          | Feed_ahead (ahead, color, count) ->
              let round = Session.round !s + ahead in
              apply !s (Feed (round, color mod instance.num_colors, count));
              fed := (round, count) :: !fed
          | Step_once -> Session.step !s
          | Reconfigure_once (n, delta, grow) ->
              apply !s (Reconfigure (n, delta, (0, instance.delay.(0) + grow)))
          | Save_load ->
              s := load_string ~mini_rounds:1 factory (save_string !s));
          Session.future_arrivals !s
          = fold_future !fed ~round:(Session.round !s))
        ops)

(* a preloaded session counts down its instance's arrivals *)
let test_preloaded_future_arrivals () =
  Array.iteri
    (fun i _ ->
      let instance = instance_of i in
      let arrivals =
        List.concat
          (List.mapi
             (fun r batch -> List.map (fun (_, count) -> (r, count)) batch)
             (Array.to_list (Instance.arrivals_by_round instance)))
      in
      let s =
        Session.of_instance (Engine.config ~n:8 ()) instance
          (Lru_edf.policy instance ~n:8)
      in
      for _ = 0 to instance.horizon do
        Alcotest.(check int)
          (Printf.sprintf "%s, round %d" families.(i).Families.id
             (Session.round s))
          (fold_future arrivals ~round:(Session.round s))
          (Session.future_arrivals s);
        Session.step s
      done;
      Alcotest.(check int) "none left" 0 (Session.future_arrivals s))
    families

(* ---- the int code and the hash ------------------------------------ *)

let prop_wire_roundtrip =
  QCheck.Test.make ~count:500 ~name:"Wire ints round-trip"
    QCheck.(list (oneof [ int; small_signed_int; make (Gen.oneofl [ min_int; max_int; 0; -1 ]) ]))
    (fun ints ->
      let w = Wire.writer ~capacity:1 () in
      List.iter (Wire.add_int w) ints;
      let s = Wire.contents w in
      String.for_all (fun c -> c >= '0' && c <= 'o') s
      &&
      let r = Wire.reader s ~pos:0 ~stop:(String.length s) in
      let back = List.map (fun _ -> Wire.int r) ints in
      back = ints && Wire.at_end r)

let prop_decimal =
  QCheck.Test.make ~count:500 ~name:"Wire.add_decimal = string_of_int"
    QCheck.(oneof [ int; small_signed_int; make (Gen.oneofl [ min_int; max_int; 0 ]) ])
    (fun v ->
      let w = Wire.writer () in
      Wire.add_decimal w v;
      Wire.contents w = string_of_int v)

let hash_of s =
  let h = Wire.Hash.create () in
  Wire.Hash.feed h s ~pos:0 ~len:(String.length s);
  Wire.Hash.digest h

(* fed in pieces of any size, the hash is the hash of the whole; any
   one-byte change and any truncation changes it *)
let prop_hash =
  QCheck.Test.make ~count:300 ~name:"Wire.Hash: piecewise = whole; flips and cuts change it"
    QCheck.(pair (string_of_size (Gen.int_range 1 200)) (pair small_nat small_nat))
    (fun (s, (a, b)) ->
      let n = String.length s in
      let a = a mod (n + 1) in
      let b = a + (b mod (n - a + 1)) in
      let h = Wire.Hash.create () in
      Wire.Hash.feed h s ~pos:0 ~len:a;
      Wire.Hash.feed h s ~pos:a ~len:(b - a);
      Wire.Hash.feed h s ~pos:b ~len:(n - b);
      let whole = hash_of s in
      let i = a mod n in
      let flipped =
        String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x20) else c) s
      in
      Wire.Hash.digest h = whole
      && hash_of flipped <> whole
      && Wire.Hash.length h = n
      && (a = n || hash_of (String.sub s 0 a) <> whole))

let test_malformed () =
  let rejects s =
    match Wire.int (Wire.reader s ~pos:0 ~stop:(String.length s)) with
    | exception Wire.Malformed _ -> ()
    | v -> Alcotest.failf "%S decoded to %d" s v
  in
  List.iter rejects [ ""; "P"; " "; "\n"; "p"; String.make 14 'P' ^ "0" ];
  (* a count larger than what is left is refused before allocating *)
  let w = Wire.writer () in
  Wire.add_int w 1_000_000;
  let s = Wire.contents w in
  match Wire.ints (Wire.reader s ~pos:0 ~stop:(String.length s)) with
  | exception Wire.Malformed _ -> ()
  | _ -> Alcotest.fail "a huge count was accepted"

let test_not_checkpointable () =
  let instance = instance_of 0 in
  let s =
    Session.create (Engine.config ~n:4 ()) ~delta:instance.delta
      ~delay:instance.delay (Static_policy.static [ 0 ])
  in
  Alcotest.(check bool) "a policy without a codec" false (Session.checkpointable s);
  let batch = Session.of_instance (Engine.config ~n:8 ()) instance (Lru_edf.policy instance ~n:8) in
  Alcotest.(check bool) "a preloaded session" false (Session.checkpointable batch);
  match Session.save s (Wire.writer ()) with
  | exception Invalid_argument _ -> ()
  | () -> Alcotest.fail "saved a session that is not checkpointable"

(* A reconfiguration re-instantiates the policy over the session's
   [Pending.t]; the new policy's ranking index must take the pending
   feed over, not join the replaced indexes on it.  After 64
   reconfigurations, the session and a save/load copy of it (whose one
   index is built at its first round) must count the same
   ["ranking_update"] increments round by round.  A stale index left
   subscribed would still be updated, and counted, at every front
   change of a color it holds. *)
let test_reconfigure_leaves_no_stale_index () =
  let instance = (Option.get (Families.find "bursty")).build ~seed:1 in
  let by_round = Instance.arrivals_by_round instance in
  let factory registry i ~n = (Lru_edf.make ~registry i ~n).policy in
  let updates registry =
    Rrs_obs.Metrics.value (Rrs_obs.Metrics.counter registry "ranking_update")
  in
  let feed_round s =
    let round = Session.round s in
    if round < Array.length by_round then
      List.iter
        (fun (color, count) -> apply s (Feed (round, color, count)))
        by_round.(round)
  in
  let registry = Rrs_obs.Metrics.create () in
  let s =
    Session.create (Engine.config ~n:8 ()) ~delta:instance.delta
      ~delay:instance.delay (factory registry)
  in
  for k = 1 to 64 do
    (* Δ alternates between 1 and 2, so every replaced policy ranked
       the colors that arrived in its one round *)
    (match Session.reconfigure s ~delta:(1 + (k mod 2)) () with
    | Ok () -> ()
    | Error e ->
        Alcotest.failf "reconfigure: %s"
          (Session.string_of_reconfigure_error e));
    feed_round s;
    Session.step s
  done;
  let copy_registry = Rrs_obs.Metrics.create () in
  let copy =
    load_string ~mini_rounds:1 (factory copy_registry) (save_string s)
  in
  for r = 1 to 32 do
    let before = updates registry and copy_before = updates copy_registry in
    feed_round s;
    feed_round copy;
    Session.step s;
    Session.step copy;
    if r > 1 then
      Alcotest.(check int)
        (Printf.sprintf "ranking updates of round %d" (Session.round s - 1))
        (updates copy_registry - copy_before)
        (updates registry - before)
  done

(* The future-batch table against a per-round list model.  Rounds fed
   ahead by multiples of the initial table size collide in one probe
   run, so taking a round in the middle of a run exercises the
   backward-shift deletion; [Save] compares the bytes with the layout
   written from the model (rounds ascending, batches in feed order). *)
let prop_future_batches =
  let open QCheck in
  let op =
    Gen.(
      frequency
        [
          ( 6,
            map3
              (fun ahead color count -> `Add (ahead, color, count))
              (oneof
                 [
                   int_range 0 9;
                   map (fun k -> 64 * k) (int_range 1 4);
                   int_range 0 300;
                 ])
              (int_bound 7) (int_range 1 5) );
          (3, return `Take);
          (1, return `Save);
        ])
  in
  Test.make ~count:300 ~name:"future batches match a per-round list model"
    (make (Gen.list_size Gen.(0 -- 400) op))
    (fun ops ->
      let t = Future_batches.create () in
      let model = Hashtbl.create 16 in
      let round = ref 0 in
      let out = Batch.create () in
      let batch r = Option.value ~default:[] (Hashtbl.find_opt model r) in
      let model_bytes () =
        let rounds =
          List.sort compare (Hashtbl.fold (fun r _ acc -> r :: acc) model [])
        in
        let batches = List.map (fun r -> List.rev (batch r)) rounds in
        let all = List.concat batches in
        let w = Wire.writer () in
        Wire.add_int w (List.length rounds);
        Wire.add_ints w
          (Array.of_list
             (rounds @ List.map List.length batches @ List.map fst all
             @ List.map snd all));
        Wire.contents w
      in
      List.for_all
        (fun op ->
          match op with
          | `Add (ahead, color, count) ->
              let r = !round + ahead in
              Future_batches.add t ~round:r ~color ~count;
              Hashtbl.replace model r ((color, count) :: batch r);
              Future_batches.mem t r
          | `Take ->
              Future_batches.take t ~round:!round out;
              let expected = List.rev (batch !round) in
              Hashtbl.remove model !round;
              incr round;
              Batch.to_list out = expected
              && Future_batches.jobs t
                 = Hashtbl.fold
                     (fun _ b acc ->
                       List.fold_left (fun acc (_, k) -> acc + k) acc b)
                     model 0
          | `Save ->
              let w = Wire.writer () in
              Future_batches.save t w;
              Wire.contents w = model_bytes ())
        ops)

let () =
  Alcotest.run "session_state"
    [
      ( "checkpoint",
        [
          QCheck_alcotest.to_alcotest prop_save_load_suffix;
          Alcotest.test_case "not checkpointable" `Quick test_not_checkpointable;
          Alcotest.test_case "reconfigure leaves no stale index" `Quick
            test_reconfigure_leaves_no_stale_index;
        ] );
      ( "arrivals",
        [
          QCheck_alcotest.to_alcotest prop_future_arrivals;
          QCheck_alcotest.to_alcotest prop_future_batches;
          Alcotest.test_case "preloaded" `Quick test_preloaded_future_arrivals;
        ] );
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_decimal;
          QCheck_alcotest.to_alcotest prop_hash;
          Alcotest.test_case "malformed input" `Quick test_malformed;
        ] );
    ]
