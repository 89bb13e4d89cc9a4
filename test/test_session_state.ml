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

let () =
  Alcotest.run "session_state"
    [
      ( "checkpoint",
        [
          QCheck_alcotest.to_alcotest prop_save_load_suffix;
          Alcotest.test_case "not checkpointable" `Quick test_not_checkpointable;
        ] );
      ( "wire",
        [
          QCheck_alcotest.to_alcotest prop_wire_roundtrip;
          QCheck_alcotest.to_alcotest prop_decimal;
          QCheck_alcotest.to_alcotest prop_hash;
          Alcotest.test_case "malformed input" `Quick test_malformed;
        ] );
    ]
