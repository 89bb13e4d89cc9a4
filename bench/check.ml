(* The perf-regression gate: compare freshly measured bench artifacts
   against the committed baselines under bench/baselines/ and exit
   nonzero if any gated metric regressed beyond its noise tolerance.

     check.exe --pair bench/baselines/BENCH_core.json:BENCH_core.json \
               --pair bench/baselines/BENCH_robust.json:BENCH_robust.json \
               --report benchdiff.txt

   This is the one front end of Rrs_benchdiff, which holds the
   comparison semantics: deterministic metrics compare exactly,
   machine-relative ratios tightly, absolute rates loosely, wall clock
   never.  See doc/PERFORMANCE.md, "The regression gate". *)

let pairs = ref []
let report = ref None

let parse_pair s =
  match String.index_opt s ':' with
  | Some i when i > 0 && i < String.length s - 1 ->
      pairs :=
        (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
        :: !pairs
  | _ -> raise (Arg.Bad (Printf.sprintf "bad --pair %S (want BASELINE:CURRENT)" s))

let spec =
  [
    ("--pair", Arg.String parse_pair, "BASELINE:CURRENT artifact pair to gate");
    ( "--report",
      Arg.String (fun f -> report := Some f),
      "FILE also write the rendered delta report here" );
  ]

let () =
  Arg.parse spec
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "check.exe: gate fresh bench artifacts against committed baselines";
  if !pairs = [] then begin
    prerr_endline "check.exe: no --pair given";
    exit 2
  end;
  let buf = Buffer.create 4096 in
  let failed = ref false in
  List.iter
    (fun (baseline, current) ->
      Buffer.add_string buf
        (Printf.sprintf "=== %s vs %s ===\n" baseline current);
      match Rrs_benchdiff.compare_files ~baseline ~current () with
      | Error msg ->
          failed := true;
          Buffer.add_string buf (Printf.sprintf "ERROR: %s\n" msg)
      | Ok r ->
          if not (Rrs_benchdiff.ok r) then failed := true;
          Buffer.add_string buf (Rrs_benchdiff.render r))
    (List.rev !pairs);
  let text = Buffer.contents buf in
  print_string text;
  Option.iter
    (fun path ->
      Out_channel.with_open_text path (fun oc -> output_string oc text))
    !report;
  if !failed then begin
    print_endline "check: REGRESSION (see report above)";
    exit 1
  end;
  print_endline "check: all artifacts within tolerance"
