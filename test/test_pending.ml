(* Tests for the pending-job bookkeeping, including a model-based
   property against a naive reference. *)

open Rrs_core

(* [Pending.expire] into a fresh buffer, as a list *)
let expire p ~now =
  let out = Batch.create () in
  Pending.expire p ~now out;
  Batch.to_list out

let save_bytes p =
  let w = Wire.writer () in
  Pending.save p w;
  Wire.contents w

let test_basics () =
  let p = Pending.create ~num_colors:3 in
  Alcotest.(check int) "num_colors" 3 (Pending.num_colors p);
  Alcotest.(check bool) "idle" true (Pending.is_idle p 0);
  Pending.add p 0 ~deadline:5 ~count:2;
  Pending.add p 0 ~deadline:7 ~count:1;
  Pending.add p 2 ~deadline:6 ~count:4;
  Alcotest.(check int) "total 0" 3 (Pending.total p 0);
  Alcotest.(check int) "grand" 7 (Pending.grand_total p);
  Alcotest.(check int) "nonidle" 2 (Pending.nonidle_count p);
  Alcotest.(check (option int)) "earliest" (Some 5) (Pending.earliest_deadline p 0);
  Alcotest.(check (option int)) "idle earliest" None (Pending.earliest_deadline p 1)

let test_execute_order () =
  let p = Pending.create ~num_colors:1 in
  Pending.add p 0 ~deadline:5 ~count:1;
  Pending.add p 0 ~deadline:9 ~count:1;
  Alcotest.(check (option int)) "earliest first" (Some 5) (Pending.execute_one p 0);
  Alcotest.(check (option int)) "then later" (Some 9) (Pending.execute_one p 0);
  Alcotest.(check (option int)) "then empty" None (Pending.execute_one p 0)

(* the zero-alloc accessors agree with their option-boxed counterparts
   through arbitrary execute/expire traffic *)
let test_flat_accessors_agree () =
  let p = Pending.create ~num_colors:2 in
  let agree msg =
    List.iter
      (fun c ->
        let expected =
          match Pending.earliest_deadline p c with Some d -> d | None -> -1
        in
        Alcotest.(check int) (Printf.sprintf "%s: color %d" msg c) expected
          (Pending.front_deadline p c))
      [ 0; 1 ]
  in
  agree "empty";
  Pending.add p 0 ~deadline:5 ~count:2;
  Pending.add p 0 ~deadline:7 ~count:1;
  Pending.add p 1 ~deadline:6 ~count:1;
  agree "loaded";
  Alcotest.(check bool) "execute consumes" true (Pending.execute p 0);
  agree "after execute";
  Alcotest.(check bool) "execute drains bucket" true (Pending.execute p 0);
  agree "front bucket gone";
  Alcotest.(check int) "front moved to 7" 7 (Pending.front_deadline p 0);
  ignore (expire p ~now:7);
  agree "after expire";
  Alcotest.(check int) "idle is -1" (-1) (Pending.front_deadline p 0);
  Alcotest.(check bool) "execute on idle is false" false (Pending.execute p 0)

let test_merge_same_deadline () =
  let p = Pending.create ~num_colors:1 in
  Pending.add p 0 ~deadline:5 ~count:2;
  Pending.add p 0 ~deadline:5 ~count:3;
  Alcotest.(check int) "merged total" 5 (Pending.total p 0);
  let single = Pending.create ~num_colors:1 in
  Pending.add single 0 ~deadline:5 ~count:5;
  Alcotest.(check string) "single bucket" (save_bytes single) (save_bytes p)

let test_add_validation () =
  let p = Pending.create ~num_colors:1 in
  Pending.add p 0 ~deadline:5 ~count:1;
  Alcotest.check_raises "deadline regression"
    (Invalid_argument "Pending.add: deadline out of order") (fun () ->
      Pending.add p 0 ~deadline:4 ~count:1);
  Alcotest.check_raises "negative count"
    (Invalid_argument "Pending.add: negative count") (fun () ->
      Pending.add p 0 ~deadline:9 ~count:(-1));
  Pending.add p 0 ~deadline:9 ~count:0;
  Alcotest.(check int) "zero count is noop" 1 (Pending.total p 0)

let test_expire () =
  let p = Pending.create ~num_colors:2 in
  Pending.add p 0 ~deadline:3 ~count:2;
  Pending.add p 0 ~deadline:5 ~count:1;
  Pending.add p 1 ~deadline:3 ~count:4;
  Alcotest.(check (list (pair int int)))
    "expire at 3"
    [ (0, 2); (1, 4) ]
    (expire p ~now:3);
  Alcotest.(check int) "remaining" 1 (Pending.grand_total p);
  Alcotest.(check (list (pair int int))) "nothing due" [] (expire p ~now:4);
  Alcotest.(check (list (pair int int)))
    "expire rest"
    [ (0, 1) ]
    (expire p ~now:5)

let test_expire_after_execute () =
  (* the due-heap entry becomes stale when a bucket is fully executed *)
  let p = Pending.create ~num_colors:1 in
  Pending.add p 0 ~deadline:3 ~count:1;
  ignore (Pending.execute_one p 0);
  Alcotest.(check (list (pair int int))) "no phantom drop" [] (expire p ~now:3)

let test_expire_keeps_future_entries () =
  (* the peek-based drain must stop at the first not-yet-due heap entry
     and leave it in place: the same entry still triggers the drop when
     its deadline arrives (regression for the pop-and-re-push drain) *)
  let p = Pending.create ~num_colors:2 in
  Pending.add p 0 ~deadline:2 ~count:1;
  Pending.add p 1 ~deadline:9 ~count:2;
  Alcotest.(check (list (pair int int)))
    "only due" [ (0, 1) ] (expire p ~now:2);
  Alcotest.(check (list (pair int int)))
    "nothing between" [] (expire p ~now:8);
  Alcotest.(check (list (pair int int)))
    "future entry still fires" [ (1, 2) ] (expire p ~now:9)

let test_stale_entry_then_live_bucket () =
  (* a stale heap entry (its bucket was fully executed) must neither
     produce a phantom drop nor hide the color's live later bucket *)
  let p = Pending.create ~num_colors:1 in
  Pending.add p 0 ~deadline:3 ~count:1;
  Pending.add p 0 ~deadline:8 ~count:1;
  ignore (Pending.execute_one p 0);
  Alcotest.(check (list (pair int int)))
    "stale entry, no drop" [] (expire p ~now:3);
  Alcotest.(check (list (pair int int)))
    "live bucket drops at its own deadline" [ (0, 1) ] (expire p ~now:8)

let test_front_change_notifications () =
  let p = Pending.create ~num_colors:2 in
  let log = ref [] in
  let take_log () =
    let l = List.rev !log in
    log := [];
    l
  in
  Pending.on_front_change p (fun c -> log := c :: !log);
  Pending.add p 0 ~deadline:5 ~count:2;
  Alcotest.(check (list int)) "idle->nonidle fires" [ 0 ] (take_log ());
  Pending.add p 0 ~deadline:7 ~count:1;
  Alcotest.(check (list int)) "append behind front is silent" [] (take_log ());
  ignore (Pending.execute_one p 0);
  Alcotest.(check (list int)) "front bucket survives: silent" [] (take_log ());
  ignore (Pending.execute_one p 0);
  Alcotest.(check (list int)) "front bucket exhausted: fires" [ 0 ] (take_log ());
  Pending.add p 1 ~deadline:6 ~count:1;
  ignore (take_log ());
  ignore (expire p ~now:7);
  Alcotest.(check (list int))
    "expiry fires per affected color" [ 0; 1 ]
    (List.sort compare (take_log ()));
  ignore (expire p ~now:8);
  Alcotest.(check (list int)) "expiring nothing is silent" [] (take_log ());
  (* one subscriber: a later one replaces it *)
  let replaced = ref [] in
  Pending.on_front_change p (fun c -> replaced := c :: !replaced);
  Pending.add p 1 ~deadline:12 ~count:1;
  Alcotest.(check (list int)) "replaced subscriber is silent" [] (take_log ());
  Alcotest.(check (list int)) "the new subscriber fires" [ 1 ] !replaced

let test_iter_nonidle () =
  let p = Pending.create ~num_colors:4 in
  Pending.add p 2 ~deadline:9 ~count:1;
  Pending.add p 0 ~deadline:9 ~count:2;
  let seen = ref [] in
  Pending.iter_nonidle p (fun c n -> seen := (c, n) :: !seen);
  Alcotest.(check (list (pair int int))) "ascending colors" [ (0, 2); (2, 1) ]
    (List.rev !seen)

(* Model-based property: interleave adds / executes / expiries /
   save-load round trips and compare against a naive per-color
   list-of-jobs model.  Deadlines are [now + delay] with a monotone
   clock, so they are nondecreasing per color; delays up to 24 keep up
   to 24 live buckets per color, which grows the rings past their
   first capacities, while executions and expiries move their fronts
   around the ring.  Ticks of up to 3 rounds expire several deadlines
   at once, so the due heap pops colors out of color order. *)
let prop_model =
  let open QCheck in
  let op =
    oneof
      [
        map (fun (c, n) -> `Add (c, n)) (pair (int_bound 2) (int_range 1 4));
        map (fun c -> `Execute c) (int_bound 2);
        map (fun k -> `Tick k) (int_range 1 3);
        always `Save_load;
      ]
  in
  let delays = triple (int_range 1 24) (int_range 1 24) (int_range 1 24) in
  Test.make ~count:300 ~name:"pending matches a naive model"
    (pair delays (list_of_size Gen.(0 -- 300) op))
    (fun ((d0, d1, d2), ops) ->
      let delay = [| d0; d1; d2 |] in
      let p = ref (Pending.create ~num_colors:3) in
      let model = Array.make 3 [] in
      (* model.(c) is a deadline-ascending list of unit jobs *)
      let now = ref 0 in
      let ok = ref true in
      (* the save layout, from the model: buckets are runs of equal
         deadlines *)
      let model_bytes () =
        let buckets =
          Array.map
            (fun jobs ->
              List.rev
                (List.fold_left
                   (fun acc d ->
                     match acc with
                     | (d', k) :: rest when d' = d -> (d, k + 1) :: rest
                     | _ -> (d, 1) :: acc)
                   [] jobs))
            model
        in
        let all = List.concat (Array.to_list buckets) in
        let w = Wire.writer () in
        Wire.add_ints w
          (Array.of_list
             (Array.to_list (Array.map List.length buckets)
             @ List.map fst all @ List.map snd all));
        Wire.contents w
      in
      List.iter
        (fun op ->
          match op with
          | `Add (c, n) ->
              let deadline = !now + delay.(c) in
              Pending.add !p c ~deadline ~count:n;
              model.(c) <- model.(c) @ List.init n (fun _ -> deadline)
          | `Execute c -> (
              let expected =
                match model.(c) with
                | [] -> None
                | d :: rest ->
                    model.(c) <- rest;
                    Some d
              in
              match (Pending.execute_one !p c, expected) with
              | Some d, Some d' when d = d' -> ()
              | None, None -> ()
              | _ -> ok := false)
          | `Tick k ->
              now := !now + k;
              let dropped = expire !p ~now:!now in
              let expected = ref [] in
              Array.iteri
                (fun c jobs ->
                  let gone = List.filter (fun d -> d <= !now) jobs in
                  model.(c) <- List.filter (fun d -> d > !now) jobs;
                  if gone <> [] then expected := (c, List.length gone) :: !expected)
                model;
              (* color-ascending, straight from the buffer *)
              if dropped <> List.rev !expected then ok := false
          | `Save_load ->
              let bytes = save_bytes !p in
              if bytes <> model_bytes () then ok := false;
              let fresh = Pending.create ~num_colors:3 in
              Pending.load fresh
                (Wire.reader bytes ~pos:0 ~stop:(String.length bytes));
              if save_bytes fresh <> bytes then ok := false;
              p := fresh)
        ops;
      List.iter
        (fun c ->
          if Pending.total !p c <> List.length model.(c) then ok := false;
          let front = match model.(c) with [] -> -1 | d :: _ -> d in
          if Pending.front_deadline !p c <> front then ok := false)
        [ 0; 1; 2 ];
      !ok && save_bytes !p = model_bytes ())

let () =
  Alcotest.run "pending"
    [
      ( "unit",
        [
          Alcotest.test_case "basics" `Quick test_basics;
          Alcotest.test_case "execute order" `Quick test_execute_order;
          Alcotest.test_case "bucket merge" `Quick test_merge_same_deadline;
          Alcotest.test_case "validation" `Quick test_add_validation;
          Alcotest.test_case "expire" `Quick test_expire;
          Alcotest.test_case "stale heap entries" `Quick
            test_expire_after_execute;
          Alcotest.test_case "iter_nonidle" `Quick test_iter_nonidle;
          Alcotest.test_case "expire keeps future entries" `Quick
            test_expire_keeps_future_entries;
          Alcotest.test_case "stale entry then live bucket" `Quick
            test_stale_entry_then_live_bucket;
          Alcotest.test_case "front-change notifications" `Quick
            test_front_change_notifications;
          Alcotest.test_case "flat accessors agree" `Quick
            test_flat_accessors_agree;
        ] );
      ("model", [ QCheck_alcotest.to_alcotest prop_model ]);
    ]
