(* Quickstart: build a small instance by hand, run the paper's ΔLRU-EDF
   policy, inspect the result, and double-check the schedule with the
   independent validator.

   Run with:  dune exec examples/quickstart.exe *)

open Rrs_core

let () =
  (* Two "services": color 0 wants its jobs done within 4 rounds, color 1
     within 2.  Reconfiguring a resource costs delta = 3; dropping a job
     costs 1. *)
  let instance =
    Instance.create ~name:"quickstart" ~delta:3 ~delay:[| 4; 2 |]
      ~arrivals:
        [
          { Types.round = 0; color = 0; count = 4 };
          { Types.round = 0; color = 1; count = 2 };
          { Types.round = 4; color = 0; count = 3 };
          { Types.round = 4; color = 1; count = 1 };
          { Types.round = 8; color = 0; count = 2 };
        ]
      ()
  in
  Format.printf "instance: %a@." Instance.pp instance;

  (* Run ΔLRU-EDF with n = 8 resources (the paper's algorithm needs a
     multiple of 4: n/4 LRU slots, n/4 EDF slots, x2 replication).
     The engine reports every drop, reconfiguration and execution to its
     event sink; a memory sink keeps them as the recorded schedule. *)
  let events = Rrs_obs.Sink.memory () in
  let config = Engine.config ~n:8 ~sink:events () in
  let result = Engine.run config instance Lru_edf.policy in
  Format.printf "dLRU-EDF: %a — executed %d, dropped %d@." Cost.pp result.cost
    result.executed result.dropped;

  (* The validator replays the recorded schedule against the model rules
     and recomputes the cost independently. *)
  let schedule =
    Schedule.of_events ~n:8 ~mini_rounds:1 (Rrs_obs.Sink.events events)
  in
  let report = Validator.check_result instance schedule result in
  Format.printf "validator: %a@." Validator.pp_report report;

  (* Compare with a certified lower bound on the optimal offline cost
     with m = 1 resource (n = 8m), and with the exact optimum — this
     instance is small enough for the exhaustive search. *)
  let lb = Offline_bounds.lower_bound instance ~m:1 in
  Format.printf "OPT(m=1) lower bound: %d@." lb;
  (match Offline_opt.solve instance ~m:1 with
  | Some opt ->
      Format.printf "exact OPT(m=1): %d — measured ratio %.2f@." opt
        (float_of_int (Cost.total result.cost) /. float_of_int (max opt 1))
  | None -> Format.printf "exact OPT: state budget exceeded@.");

  (* And with the naive baselines the paper shows are not competitive. *)
  List.iter
    (fun (name, factory) ->
      let r = Engine.run (Engine.config ~n:8 ()) instance factory in
      Format.printf "%-10s %a@." name Cost.pp r.cost)
    [
      ("dLRU", Delta_lru.policy);
      ("EDF", Edf_policy.policy);
      ("black", Static_policy.black);
    ]
