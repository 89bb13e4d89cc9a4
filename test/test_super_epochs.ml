(* Tests for the super-epoch instrumentation (paper Section 3.4) and the
   structural facts the analysis rests on. *)

open Rrs_core
module Families = Rrs_workload.Families
module Rng = Rrs_prng.Rng

let arr round color count = { Types.round; color; count }

(* a policy whose eligibility events feed a fresh super-epoch counter *)
let make_counted instance ~n ~m =
  let se = Super_epochs.create ~m in
  let sink = Super_epochs.attach se Rrs_obs.Sink.null in
  (Lru_edf.make ~sink instance ~n, se)

let run_instrumented instance ~n ~m =
  let instr, se = make_counted instance ~n ~m in
  let result = Engine.run_policy (Engine.config ~n ()) instance instr.policy in
  (result, instr.eligibility, se)

let test_attach_validation () =
  match Super_epochs.create ~m:0 with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "m = 0 accepted"

let test_hand_computed_super_epoch () =
  (* one color, delta = 1, arrivals every window: a timestamp update at
     every multiple after the first wrap.  With m = 1, a super-epoch ends
     when 2 colors update; a single color can never end one. *)
  let i =
    Instance.create ~delta:1 ~delay:[| 2 |]
      ~arrivals:(List.init 5 (fun w -> arr (2 * w) 0 1))
      ()
  in
  let instr, se = make_counted i ~n:4 ~m:1 in
  ignore (Engine.run_policy (Engine.config ~n:4 ()) i instr.policy);
  Alcotest.(check int) "no super-epoch ends" 0 (Super_epochs.completed se);
  Alcotest.(check int) "one active color" 1
    (Super_epochs.current_active_colors se);
  Alcotest.(check bool) "updates happened" true
    (Super_epochs.updates_total se >= 4)

let test_two_colors_end_super_epochs () =
  (* two alternating colors, m = 1: each time both update, an epoch ends *)
  let i =
    Instance.create ~delta:1 ~delay:[| 2; 2 |]
      ~arrivals:
        (List.concat (List.init 6 (fun w -> [ arr (2 * w) 0 1; arr (2 * w) 1 1 ])))
      ()
  in
  let instr, se = make_counted i ~n:4 ~m:1 in
  ignore (Engine.run_policy (Engine.config ~n:4 ()) i instr.policy);
  Alcotest.(check bool) "several super-epochs" true
    (Super_epochs.completed se >= 2);
  List.iter
    (fun active ->
      Alcotest.(check int) "exactly 2m active colors at the end" 2 active)
    (Super_epochs.active_colors_per_super_epoch se)

let families_runs () =
  List.concat_map
    (fun (f : Families.family) ->
      if f.layer = Families.Rate_limited then
        [ (f.id, run_instrumented (f.build ~seed:1) ~n:8 ~m:1) ]
      else [])
    Families.all

let test_super_epoch_sizes_are_exactly_2m () =
  List.iter
    (fun (id, (_, _, se)) ->
      List.iter
        (fun active ->
          if active <> 2 then
            Alcotest.failf "%s: super-epoch closed with %d active colors" id
              active)
        (Super_epochs.active_colors_per_super_epoch se))
    (families_runs ())

let test_epochs_bounded_by_super_epochs () =
  (* Lemma 3.16 + Corollary 3.2 imply:
     numEpochs <= 3 * (2m) * (completed super-epochs + 1) + 3 * colors.
     A generous but shape-correct empirical check. *)
  List.iter
    (fun (id, ((_ : Engine.result), elig, se)) ->
      let epochs = Eligibility.epochs_total elig in
      let m = 1 in
      let bound =
        (3 * 2 * m * (Super_epochs.completed se + 1))
        + (3 * Super_epochs.updates_total se)
      in
      if epochs > bound then
        Alcotest.failf "%s: epochs %d > structural bound %d" id epochs bound)
    (families_runs ())

let test_lemma_3_5_shape () =
  (* Lemma 3.5: when every color has >= delta jobs, Cost_OFF =
     Omega(numEpochs * delta).  Checked against the exact OPT on tiny
     instances with a conservative constant. *)
  let rng = Rng.create ~seed:123 in
  let checked = ref 0 in
  for _ = 1 to 12 do
    let delta = 1 + Rng.int rng 2 in
    let delay = [| 2; 4 |] in
    let arrivals =
      List.concat
        (List.init 4 (fun b ->
             [
               arr (b * 4) 0 (delta + Rng.int rng 2);
               arr (b * 4) 1 (delta + Rng.int rng 2);
             ]))
    in
    let i = Instance.create ~delta ~delay ~arrivals () in
    (* all colors have >= delta jobs by construction *)
    match Offline_opt.solve ~max_states:400_000 i ~m:1 with
    | None -> ()
    | Some opt ->
        incr checked;
        let instr = Lru_edf.make i ~n:8 in
        ignore (Engine.run_policy (Engine.config ~n:8 ()) i instr.policy);
        let epochs = Eligibility.epochs_total instr.eligibility in
        (* paper's constants are loose; 24 is far beyond its 3..6 range *)
        if epochs * delta > 24 * max opt 1 then
          Alcotest.failf "epochs*delta = %d far exceeds OPT %d" (epochs * delta)
            opt
  done;
  if !checked = 0 then Alcotest.fail "no instance solved"

let () =
  Alcotest.run "super_epochs"
    [
      ( "mechanics",
        [
          Alcotest.test_case "attach validation" `Quick test_attach_validation;
          Alcotest.test_case "single color never ends one" `Quick
            test_hand_computed_super_epoch;
          Alcotest.test_case "two colors end them" `Quick
            test_two_colors_end_super_epochs;
          Alcotest.test_case "sizes exactly 2m" `Slow
            test_super_epoch_sizes_are_exactly_2m;
        ] );
      ( "analysis shapes",
        [
          Alcotest.test_case "epochs vs super-epochs" `Slow
            test_epochs_bounded_by_super_epochs;
          Alcotest.test_case "Lemma 3.5 shape" `Slow test_lemma_3_5_shape;
        ] );
    ]
