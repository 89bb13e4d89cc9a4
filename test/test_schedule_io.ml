(* Tests for schedule CSV export and the Gantt renderer. *)

open Rrs_core
module Schedule_io = Rrs_trace.Schedule_io
module Csv = Rrs_trace.Csv

let arr round color count = { Types.round; color; count }

let record ~n instance factory =
  let events = Rrs_obs.Sink.memory () in
  let r = Engine.run (Engine.config ~n ~sink:events ()) instance factory in
  (r, Schedule.of_events ~n ~mini_rounds:1 (Rrs_obs.Sink.events events))

let sample () =
  let instance =
    Instance.create ~delta:2 ~delay:[| 4; 4 |]
      ~arrivals:[ arr 0 0 6; arr 0 1 2 ]
      ()
  in
  record ~n:2 instance (Static_policy.static [ 0; 1 ])

let test_csv_shape () =
  let r, sched = sample () in
  let rows = Csv.parse_exn (Schedule_io.to_csv sched) in
  Alcotest.(check int) "header + events"
    (1 + Array.length sched.Schedule.events)
    (List.length rows);
  Alcotest.(check (list string)) "header"
    [ "kind"; "round"; "mini_round"; "resource"; "color"; "count"; "from_color" ]
    (List.hd rows);
  let kinds = List.map List.hd (List.tl rows) in
  let count k = List.length (List.filter (( = ) k) kinds) in
  Alcotest.(check int) "executes" r.executed (count "execute");
  Alcotest.(check int) "reconfigures" r.reconfigurations (count "reconfigure");
  Alcotest.(check bool) "drops present" true (count "drop" > 0)

let test_gantt_contents () =
  (* three resources, one left black: the grid must show all three cell
     kinds (held color, execution marker, idle dot) *)
  let instance =
    Instance.create ~delta:2 ~delay:[| 4; 4 |]
      ~arrivals:[ arr 0 0 6; arr 0 1 2 ]
      ()
  in
  let _, sched = record ~n:3 instance (Static_policy.static [ 0; 1 ]) in
  let g = Schedule_io.render_gantt sched in
  (* resource rows and execution markers are present *)
  Alcotest.(check bool) "row r0" true
    (String.length g > 0
    &&
    let lines = String.split_on_char '\n' g in
    List.exists (fun l -> String.length l > 2 && String.sub l 0 2 = "r0") lines);
  Alcotest.(check bool) "execution marker" true
    (String.exists (( = ) '*') g);
  Alcotest.(check bool) "idle marker" true (String.exists (( = ) '.') g)

let test_gantt_clipping () =
  let _, sched = sample () in
  let g = Schedule_io.render_gantt ~max_rounds:2 ~max_resources:1 sched in
  let lines =
    List.filter (fun l -> l <> "") (String.split_on_char '\n' g)
  in
  (* clipping note + header + one resource row *)
  Alcotest.(check int) "clipped rows" 3 (List.length lines);
  Alcotest.(check bool) "note" true
    (String.length (List.hd lines) > 0 && (List.hd lines).[0] = '(')

let () =
  Alcotest.run "schedule_io"
    [
      ( "csv",
        [ Alcotest.test_case "shape" `Quick test_csv_shape ] );
      ( "gantt",
        [
          Alcotest.test_case "contents" `Quick test_gantt_contents;
          Alcotest.test_case "clipping" `Quick test_gantt_clipping;
        ] );
    ]
