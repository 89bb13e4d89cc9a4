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

(* ---- damaged states ------------------------------------------------ *)

(* The registry-size families, then [zipf] scaled to 1024 colors. *)
let damage_instances =
  lazy
    (Array.append
       (Array.init (Array.length families) instance_of)
       [|
         (match Families.scale_to (Option.get (Families.find "zipf")) ~num_colors:1024 ~seed:1 with
         | Ok i -> i
         | Error e -> failwith (Families.string_of_scale_error e));
       |])

type damage = Flip of char | Cut | Insert of char

let print_damage = function
  | Flip c -> Printf.sprintf "flip to %C" c
  | Cut -> "cut"
  | Insert c -> Printf.sprintf "insert %C" c

let damage_gen =
  QCheck.Gen.(
    let byte =
      frequency
        [ (4, map Char.chr (int_range 48 111)); (1, oneofl [ ' '; '\n'; '/'; 'p' ]); (1, char) ]
    in
    frequency [ (3, map (fun c -> Flip c) byte); (1, return Cut); (1, map (fun c -> Insert c) byte) ])

let damaged s at = function
  | Flip c ->
      let c = if s.[at] = c then Char.chr (Char.code c lxor 1) else c in
      String.mapi (fun i b -> if i = at then c else b) s
  | Cut -> String.sub s 0 at ^ String.sub s (at + 1) (String.length s - at - 1)
  | Insert c -> String.sub s 0 at ^ String.make 1 c ^ String.sub s at (String.length s - at)

(* A session saved after a random prefix of its family's calls, one byte
   of its state flipped, cut or inserted: the load refuses, or it loads
   a session that saves exactly the damaged bytes, so the bytes were a
   state [save] writes and nothing was read as something else.  Every
   int has one encoding and every section one layout, so no damage can
   load as a session that saves other bytes. *)
let prop_damaged_state =
  QCheck.Test.make ~count:400 ~name:"a damaged state never loads as another session"
    (QCheck.make
       ~print:(fun ((f, p), (rounds, (at, d))) ->
         let instances = Lazy.force damage_instances in
         Printf.sprintf "instance %d (%d colors), policy %s, %d rounds, byte %d mod the length: %s" f
           instances.(f).Instance.num_colors (fst policies.(p)) rounds at (print_damage d))
       QCheck.Gen.(
         pair
           (pair (int_bound (Array.length families)) (int_bound (Array.length policies - 1)))
           (pair (int_range 0 96) (pair nat damage_gen))))
    (fun ((f, p), (rounds, (at, d))) ->
      let instance = (Lazy.force damage_instances).(f) in
      let factory = snd policies.(p) in
      let s =
        Session.create (Engine.config ~n:8 ()) ~delta:instance.delta
          ~delay:instance.delay factory
      in
      List.iter (apply s)
        (calls_of instance ~rounds ~lead:2 ~at:(rounds / 2)
           ~reconfig:(Reconfigure (8, instance.delta, (0, instance.delay.(0)))));
      let saved = save_string s in
      let bad = damaged saved (at mod String.length saved) d in
      match
        Session.load (Engine.config ~n:8 ()) factory
          (Wire.reader bad ~pos:0 ~stop:(String.length bad))
      with
      | Error _ -> true
      | Ok loaded -> save_string loaded = bad)

let reader_of bytes = Wire.reader bytes ~pos:0 ~stop:(String.length bytes)

let refuses what load bytes =
  match load (reader_of bytes) with
  | () -> Alcotest.failf "%s loaded" what
  | exception Wire.Malformed _ -> ()

let ints a =
  let w = Wire.writer () in
  Wire.add_ints w a;
  Wire.contents w

(* Two colors: the bucket counts, then the deadline and the job count
   columns of one bucket.  Counts that do not add up to the buckets
   there are refused. *)
let test_pending_refuses_bucket_counts () =
  let load r = Pending.load (Pending.create ~num_colors:2) r in
  load (reader_of (ints [| 1; 0; 5; 3 |]));
  refuses "two buckets over one" load (ints [| 1; 1; 5; 3 |]);
  refuses "no bucket over one" load (ints [| 0; 0; 5; 3 |]);
  refuses "a negative bucket count" load (ints [| -1; 2; 5; 3 |])

(* Two distinct slots over four colors. *)
let test_cache_state_refuses_slots () =
  let load r = Cache_state.load (Cache_state.create ~num_colors:4 ~distinct_slots:2) r in
  load (reader_of (ints [| Types.black; 3 |]));
  refuses "three slots for two" load (ints [| 0; 1; 2 |]);
  refuses "one slot for two" load (ints [| 0 |]);
  refuses "a color past the universe" load (ints [| 0; 4 |]);
  refuses "a negative color other than black" load (ints [| -2; 1 |])

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
      back = ints && Wire.at_end r
      &&
      (* the whole list as one section, decoded in place after two
         slots of other data, against the allocating reader it
         replaced *)
      let a = Array.of_list ints in
      let w = Wire.writer ~capacity:1 () in
      Wire.add_ints w a;
      let s = Wire.contents w in
      let r = Wire.reader s ~pos:0 ~stop:(String.length s) in
      let n = Wire.count r in
      let into = Array.make (n + 2) 0 in
      Wire.read_into r into ~pos:2 ~len:n;
      Array.sub into 2 n = a
      && Wire.at_end r
      && Rrs_oracle.Wire_ints.ints s ~pos:0 = a)

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
  (* digits [add_int] never writes: a final 0 after others, and a 13th
     digit whose bits would pass the 63rd *)
  List.iter rejects [ "P0"; "o0"; "QP0"; String.make 12 'P' ^ "8" ];
  (* a count larger than what is left is refused before allocating *)
  let w = Wire.writer () in
  Wire.add_int w 1_000_000;
  let s = Wire.contents w in
  match Wire.count (Wire.reader s ~pos:0 ~stop:(String.length s)) with
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
          QCheck_alcotest.to_alcotest prop_damaged_state;
          Alcotest.test_case "pending refuses bucket counts" `Quick
            test_pending_refuses_bucket_counts;
          Alcotest.test_case "cache state refuses slots" `Quick
            test_cache_state_refuses_slots;
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
