(* Unit and property tests for the container substrate. *)

module IntH = Rrs_dstruct.Int_heap
module IIH = Rrs_dstruct.Int_indexed_heap
module FW = Rrs_dstruct.Fenwick

let int_cmp = Stdlib.compare

(* ------------------------------------------------------------------ *)
(* Int heap (flat 4-ary)                                               *)
(* ------------------------------------------------------------------ *)

let test_inth_basics () =
  let h = IntH.create ~initial_capacity:4 () in
  Alcotest.(check int) "capacity honored" 4 (IntH.capacity h);
  Alcotest.(check bool) "empty" true (IntH.is_empty h);
  Alcotest.check_raises "min raises" Not_found (fun () -> ignore (IntH.min h));
  List.iter (IntH.add h) [ 5; 1; 4; 1; 3; 9; 2 ];
  Alcotest.(check bool) "invariant" true (IntH.check_invariant h);
  Alcotest.(check int) "min" 1 (IntH.min h);
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ]
    (IntH.to_sorted_list h);
  Alcotest.(check int) "nondestructive" 7 (IntH.length h);
  let drained = List.init 7 (fun _ -> IntH.pop_min h) in
  Alcotest.(check (list int)) "drain order" [ 1; 1; 2; 3; 4; 5; 9 ] drained;
  IntH.clear h;
  IntH.add h 42;
  Alcotest.(check int) "usable after clear" 42 (IntH.min h)

let test_inth_ordering () =
  let h = IntH.create () in
  List.iter (IntH.add h) [ 3; 1; 4; 1; 5; 9; 2 ];
  Alcotest.(check int) "length" 7 (IntH.length h);
  Alcotest.(check int) "min" 1 (IntH.min h);
  Alcotest.(check (list int)) "sorted" [ 1; 1; 2; 3; 4; 5; 9 ]
    (IntH.to_sorted_list h);
  Alcotest.(check int) "to_sorted_list is nondestructive" 7 (IntH.length h);
  let drained = List.init 7 (fun _ -> IntH.pop_min h) in
  Alcotest.(check (list int)) "drain order" [ 1; 1; 2; 3; 4; 5; 9 ] drained;
  Alcotest.(check bool) "empty after drain" true (IntH.is_empty h)

let test_inth_empty () =
  let h = IntH.create () in
  Alcotest.(check bool) "empty" true (IntH.is_empty h);
  Alcotest.(check int) "length" 0 (IntH.length h);
  Alcotest.check_raises "min raises" Not_found (fun () -> ignore (IntH.min h));
  Alcotest.check_raises "pop raises" Not_found (fun () ->
      ignore (IntH.pop_min h))

let test_inth_clear_and_grow () =
  let h = IntH.create ~initial_capacity:1 () in
  for i = 100 downto 1 do
    IntH.add h i
  done;
  Alcotest.(check int) "grown" 100 (IntH.length h);
  Alcotest.(check int) "min" 1 (IntH.min h);
  IntH.clear h;
  Alcotest.(check bool) "cleared" true (IntH.is_empty h);
  IntH.add h 42;
  Alcotest.(check int) "usable after clear" 42 (IntH.min h)

(* the creation-time hint sizes the first backing array exactly, and the
   heap grows only once it is full *)
let test_inth_initial_capacity () =
  let h = IntH.create ~initial_capacity:64 () in
  Alcotest.(check int) "capacity honored" 64 (IntH.capacity h);
  IntH.add h 7;
  Alcotest.(check int) "first add does not grow" 64 (IntH.capacity h);
  for i = 1 to 63 do
    IntH.add h i
  done;
  Alcotest.(check int) "still at hint when full" 64 (IntH.capacity h);
  IntH.add h 99;
  Alcotest.(check bool) "grows past the hint" true (IntH.capacity h > 64)

let test_inth_iter () =
  let h = IntH.create () in
  List.iter (IntH.add h) [ 4; 2; 7 ];
  let sum = ref 0 and count = ref 0 in
  IntH.iter
    (fun x ->
      sum := !sum + x;
      incr count)
    h;
  Alcotest.(check int) "iter sum" 13 !sum;
  Alcotest.(check int) "iter count" 3 !count

let prop_inth_sorts =
  QCheck.Test.make ~count:300 ~name:"int heap sorts like List.sort"
    QCheck.(list int)
    (fun xs ->
      let xs = List.map abs xs in
      let h = IntH.create () in
      List.iter (IntH.add h) xs;
      IntH.to_sorted_list h = List.sort int_cmp xs && IntH.check_invariant h)

(* the destructive path: draining with [pop_min] yields the sorted list
   and keeps the invariant after every pop *)
let prop_inth_drains =
  QCheck.Test.make ~count:300 ~name:"int heap drains in List.sort order"
    QCheck.(list int)
    (fun xs ->
      let xs = List.map abs xs in
      let h = IntH.create () in
      List.iter (IntH.add h) xs;
      let drained =
        List.map
          (fun _ ->
            let x = IntH.pop_min h in
            if not (IntH.check_invariant h) then failwith "invariant";
            x)
          xs
      in
      drained = List.sort int_cmp xs && IntH.is_empty h)

(* ------------------------------------------------------------------ *)
(* Int indexed heap (flat 4-ary)                                       *)
(* ------------------------------------------------------------------ *)

let test_iih_basics () =
  let h = IIH.create ~capacity:8 in
  IIH.insert h 3 30;
  IIH.insert h 1 10;
  IIH.insert h 5 50;
  Alcotest.(check int) "length" 3 (IIH.length h);
  Alcotest.(check bool) "mem" true (IIH.mem h 3);
  Alcotest.(check bool) "not mem" false (IIH.mem h 0);
  Alcotest.(check int) "priority" 30 (IIH.priority h 3);
  Alcotest.(check (pair int int)) "min" (1, 10) (IIH.min h);
  Alcotest.(check int) "min_key" 1 (IIH.min_key h);
  IIH.update h 5 5;
  Alcotest.(check (pair int int)) "decrease-key" (5, 5) (IIH.min h);
  IIH.update h 5 500;
  Alcotest.(check (pair int int)) "increase-key" (1, 10) (IIH.min h);
  IIH.remove h 1;
  Alcotest.(check (pair int int)) "after remove" (3, 30) (IIH.min h);
  IIH.remove h 1;
  Alcotest.(check int) "remove absent is noop" 2 (IIH.length h);
  Alcotest.(check bool) "invariant" true (IIH.check_invariant h);
  Alcotest.check_raises "key range"
    (Invalid_argument "Int_indexed_heap: key out of range") (fun () ->
      IIH.insert h 8 0)

(* decrease- and increase-key on several keys, each followed by a check
   of the minimum and of the stored priority *)
let test_iih_rekey () =
  let h = IIH.create ~capacity:6 in
  List.iter (fun (k, p) -> IIH.insert h k p) [ (0, 40); (2, 20); (4, 60) ];
  IIH.update h 4 10;
  Alcotest.(check (pair int int)) "decrease-key to the top" (4, 10) (IIH.min h);
  Alcotest.(check int) "priority follows" 10 (IIH.priority h 4);
  IIH.update h 4 70;
  Alcotest.(check (pair int int)) "increase-key off the top" (2, 20)
    (IIH.min h);
  IIH.update h 0 15;
  Alcotest.(check (pair int int)) "decrease a non-root key" (0, 15)
    (IIH.min h);
  IIH.update h 0 15;
  Alcotest.(check int) "same-priority update is stable" 3 (IIH.length h);
  IIH.remove h 0;
  IIH.remove h 0;
  Alcotest.(check int) "remove absent is noop" 2 (IIH.length h);
  Alcotest.check_raises "priority of absent" Not_found (fun () ->
      ignore (IIH.priority h 0));
  Alcotest.(check (list (pair int int)))
    "drain order" [ (2, 20); (4, 70) ]
    (List.init 2 (fun _ -> IIH.pop_min h));
  Alcotest.(check bool) "invariant" true (IIH.check_invariant h)

(* every key-taking operation rejects keys outside [0 .. capacity-1] *)
let test_iih_out_of_range () =
  let h = IIH.create ~capacity:2 in
  let range = Invalid_argument "Int_indexed_heap: key out of range" in
  Alcotest.check_raises "insert at capacity" range (fun () -> IIH.insert h 2 0);
  Alcotest.check_raises "insert negative" range (fun () -> IIH.insert h (-1) 0);
  Alcotest.check_raises "update" range (fun () -> IIH.update h 2 0);
  Alcotest.check_raises "remove" range (fun () -> IIH.remove h 2);
  Alcotest.check_raises "mem" range (fun () -> ignore (IIH.mem h 2));
  Alcotest.check_raises "priority" range (fun () -> ignore (IIH.priority h 2));
  Alcotest.(check int) "heap untouched" 0 (IIH.length h)

let test_iih_smallest_into () =
  let h = IIH.create ~capacity:10 in
  List.iteri (fun key prio -> IIH.insert h key prio) [ 40; 10; 30; 20; 50 ];
  let out = Array.make 10 (-1) in
  let got = IIH.smallest_into h 3 ~out in
  Alcotest.(check int) "count" 3 got;
  Alcotest.(check (list int)) "ascending priority order" [ 1; 3; 2 ]
    (Array.to_list (Array.sub out 0 got));
  Alcotest.(check int) "nondestructive" 5 (IIH.length h);
  Alcotest.(check int) "beyond size" 5 (IIH.smallest_into h 99 ~out);
  Alcotest.(check (list (pair int int)))
    "smallest list agrees"
    [ (1, 10); (3, 20); (2, 30) ]
    (IIH.smallest h 3);
  Alcotest.check_raises "out too small"
    (Invalid_argument "Int_indexed_heap.smallest_into: out buffer too small")
    (fun () -> ignore (IIH.smallest_into h 3 ~out:(Array.make 2 0)))

let test_iih_smallest () =
  let h = IIH.create ~capacity:10 in
  List.iteri (fun key prio -> IIH.insert h key prio) [ 40; 10; 30; 20; 50 ];
  Alcotest.(check (list (pair int int)))
    "smallest 3"
    [ (1, 10); (3, 20); (2, 30) ]
    (IIH.smallest h 3);
  Alcotest.(check int) "smallest does not consume" 5 (IIH.length h);
  Alcotest.(check (list (pair int int)))
    "smallest beyond size"
    [ (1, 10); (3, 20); (2, 30); (0, 40); (4, 50) ]
    (IIH.smallest h 99);
  Alcotest.(check (list (pair int int))) "smallest 0" [] (IIH.smallest h 0)

let test_iih_update_inserts () =
  let h = IIH.create ~capacity:4 in
  IIH.update h 2 20;
  Alcotest.(check bool) "update inserts" true (IIH.mem h 2);
  Alcotest.check_raises "double insert rejected"
    (Invalid_argument "Int_indexed_heap.insert: key present") (fun () ->
      IIH.insert h 2 7)

let test_iih_peek () =
  let h = IIH.create ~capacity:4 in
  Alcotest.(check bool) "empty" true (IIH.peek_min_opt h = None);
  IIH.insert h 2 20;
  IIH.insert h 0 5;
  Alcotest.(check bool) "min" true (IIH.peek_min_opt h = Some (0, 5));
  Alcotest.(check int) "nondestructive" 2 (IIH.length h);
  IIH.remove h 0;
  Alcotest.(check bool) "tracks removals" true
    (IIH.peek_min_opt h = Some (2, 20))

let test_iih_clear () =
  let h = IIH.create ~capacity:4 in
  IIH.insert h 0 1;
  IIH.insert h 1 2;
  IIH.clear h;
  Alcotest.(check bool) "cleared" true (IIH.is_empty h);
  Alcotest.(check bool) "mem after clear" false (IIH.mem h 0);
  IIH.insert h 0 9;
  Alcotest.(check (pair int int)) "reusable" (0, 9) (IIH.min h)

let iih_op =
  let open QCheck in
  oneof
    [
      map (fun (k, p) -> `Update (k, p)) (pair (int_bound 15) small_nat);
      map (fun k -> `Remove k) (int_bound 15);
      always `Pop;
    ]

(* model-based: random ops against a Hashtbl model — same length, and
   the same minimum priority at every step *)
let prop_iih_model =
  QCheck.Test.make ~count:500 ~name:"int indexed heap matches a model"
    QCheck.(list iih_op)
    (fun ops ->
      let h = IIH.create ~capacity:16 in
      let model = Hashtbl.create 16 in
      let model_min () =
        Hashtbl.fold
          (fun k p acc ->
            match acc with
            | None -> Some (p, k)
            | Some (bp, bk) ->
                if (p, k) < (bp, bk) then Some (p, k) else Some (bp, bk))
          model None
      in
      List.for_all
        (fun op ->
          (match op with
          | `Update (k, p) ->
              IIH.update h k p;
              Hashtbl.replace model k p
          | `Remove k ->
              IIH.remove h k;
              Hashtbl.remove model k
          | `Pop -> (
              match IIH.pop_min_opt h with
              | None -> ()
              | Some (k, _) -> Hashtbl.remove model k));
          IIH.check_invariant h
          && IIH.length h = Hashtbl.length model
          && Hashtbl.fold
               (fun k p ok -> ok && IIH.mem h k && IIH.priority h k = p)
               model true
          &&
          (* priority ties are broken arbitrarily by the heap, so compare
             priorities only *)
          match (model_min (), IIH.peek_min_opt h) with
          | None, None -> true
          | Some (p, _), Some (_, p') -> p = p'
          | _ -> false)
        ops)

(* the same model, but the minimum is read by popping it and putting it
   back, so every step also exercises a pop/insert round trip *)
let prop_iih_pop_reinsert =
  QCheck.Test.make ~count:300 ~name:"pop+reinsert keeps matching a model"
    QCheck.(list iih_op)
    (fun ops ->
      let h = IIH.create ~capacity:16 in
      let model = Hashtbl.create 16 in
      let model_min () =
        Hashtbl.fold
          (fun _ p acc -> match acc with None -> Some p | Some q -> Some (min p q))
          model None
      in
      List.for_all
        (fun op ->
          (match op with
          | `Update (k, p) ->
              IIH.update h k p;
              Hashtbl.replace model k p
          | `Remove k ->
              IIH.remove h k;
              Hashtbl.remove model k
          | `Pop -> (
              match IIH.pop_min_opt h with
              | None -> ()
              | Some (k, _) -> Hashtbl.remove model k));
          IIH.check_invariant h
          && IIH.length h = Hashtbl.length model
          &&
          match (model_min (), IIH.pop_min_opt h) with
          | None, None -> true
          | Some p, Some (k', p') ->
              IIH.insert h k' p';
              p = p' && Hashtbl.find_opt model k' = Some p'
          | _ -> false)
        ops)

(* storm: the 4-ary invariant (and both directions of the position
   index) survives arbitrary interleavings of update/remove/pop *)
let prop_iih_storm =
  QCheck.Test.make ~count:200 ~name:"4-ary invariant under op storms"
    QCheck.(pair (int_range 1 64) (list iih_op))
    (fun (cap, ops) ->
      let h = IIH.create ~capacity:64 in
      List.iter
        (fun op ->
          match op with
          | `Update (k, p) -> IIH.update h (k mod cap) p
          | `Remove k -> IIH.remove h (k mod cap)
          | `Pop -> ignore (IIH.pop_min_opt h))
        ops;
      IIH.check_invariant h)

let prop_iih_smallest_matches_sort =
  QCheck.Test.make ~count:300 ~name:"smallest_into = sorted prefix"
    QCheck.(pair (int_bound 20) (list (pair (int_bound 31) small_nat)))
    (fun (k, bindings) ->
      let h = IIH.create ~capacity:32 in
      (* distinct priorities (key is the low tie-break, as in the packed
         rank keys) so the expected prefix is unique *)
      List.iter (fun (key, p) -> IIH.update h key ((p * 32) + key)) bindings;
      let out = Array.make 32 (-1) in
      let got = IIH.smallest_into h k ~out in
      let expected =
        let all = ref [] in
        IIH.iter (fun key p -> all := (p, key) :: !all) h;
        List.filteri
          (fun i _ -> i < k)
          (List.map snd (List.sort compare !all))
      in
      got = List.length expected
      && Array.to_list (Array.sub out 0 got) = expected
      && IIH.check_invariant h)

(* ------------------------------------------------------------------ *)
(* Fenwick                                                             *)
(* ------------------------------------------------------------------ *)

let test_fw_basics () =
  let f = FW.create ~size:8 in
  FW.add f 0 3;
  FW.add f 3 5;
  FW.add f 7 2;
  Alcotest.(check int) "prefix 0" 3 (FW.prefix_sum f 0);
  Alcotest.(check int) "prefix 3" 8 (FW.prefix_sum f 3);
  Alcotest.(check int) "total" 10 (FW.total f);
  Alcotest.(check int) "range" 7 (FW.range_sum f 1 7);
  Alcotest.(check int) "get" 5 (FW.get f 3);
  Alcotest.(check int) "search first" 0 (FW.search f 1);
  Alcotest.(check int) "search mid" 3 (FW.search f 4);
  Alcotest.(check int) "search last" 7 (FW.search f 10);
  Alcotest.check_raises "search too much" Not_found (fun () ->
      ignore (FW.search f 11));
  FW.clear f;
  Alcotest.(check int) "cleared" 0 (FW.total f)

let prop_fw_prefix =
  QCheck.Test.make ~count:300 ~name:"fenwick prefix sums match naive"
    QCheck.(list (pair (int_bound 15) (int_range 0 20)))
    (fun updates ->
      let f = FW.create ~size:16 in
      let naive = Array.make 16 0 in
      List.iter
        (fun (i, v) ->
          FW.add f i v;
          naive.(i) <- naive.(i) + v)
        updates;
      List.for_all
        (fun i ->
          let expected = Array.fold_left ( + ) 0 (Array.sub naive 0 (i + 1)) in
          FW.prefix_sum f i = expected)
        (List.init 16 Fun.id))

let prop_fw_search =
  QCheck.Test.make ~count:300 ~name:"fenwick search finds the k-th rank"
    QCheck.(list (pair (int_bound 15) (int_range 1 5)))
    (fun updates ->
      QCheck.assume (updates <> []);
      let f = FW.create ~size:16 in
      List.iter (fun (i, v) -> FW.add f i v) updates;
      let total = FW.total f in
      List.for_all
        (fun k ->
          let i = FW.search f k in
          FW.prefix_sum f i >= k && (i = 0 || FW.prefix_sum f (i - 1) < k))
        (List.init total (fun i -> i + 1)))

let () =
  let qsuite name tests = (name, List.map QCheck_alcotest.to_alcotest tests) in
  Alcotest.run "dstruct"
    [
      ( "int_heap",
        [
          Alcotest.test_case "basics" `Quick test_inth_basics;
          Alcotest.test_case "ordering" `Quick test_inth_ordering;
          Alcotest.test_case "empty" `Quick test_inth_empty;
          Alcotest.test_case "clear+grow" `Quick test_inth_clear_and_grow;
          Alcotest.test_case "initial capacity honored" `Quick
            test_inth_initial_capacity;
          Alcotest.test_case "iter" `Quick test_inth_iter;
        ] );
      qsuite "int_heap_props" [ prop_inth_sorts; prop_inth_drains ];
      ( "int_indexed_heap",
        [
          Alcotest.test_case "basics" `Quick test_iih_basics;
          Alcotest.test_case "rekey" `Quick test_iih_rekey;
          Alcotest.test_case "out of range" `Quick test_iih_out_of_range;
          Alcotest.test_case "smallest_into" `Quick test_iih_smallest_into;
          Alcotest.test_case "smallest" `Quick test_iih_smallest;
          Alcotest.test_case "update inserts" `Quick test_iih_update_inserts;
          Alcotest.test_case "peek_min_opt" `Quick test_iih_peek;
          Alcotest.test_case "clear" `Quick test_iih_clear;
        ] );
      qsuite "int_indexed_heap_props"
        [
          prop_iih_model;
          prop_iih_pop_reinsert;
          prop_iih_storm;
          prop_iih_smallest_matches_sort;
        ];
      ( "fenwick",
        [ Alcotest.test_case "basics" `Quick test_fw_basics ] );
      qsuite "fenwick_props" [ prop_fw_prefix; prop_fw_search ];
    ]
