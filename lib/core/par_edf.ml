type result = {
  drop_cost : int;
  executed : int;
  drops_by_color : int array;
}

(* Per round we take the best-ranked nonidle color — keyed by (earliest
   pending deadline, delay bound, color) — execute one of its jobs, and
   repeat up to m times.  Jobs within a color are FIFO = EDF.

   The nonidle colors live in one flat int-indexed heap, priced by the
   packed klass-0 rank key (int order = the tuple order above) and kept
   in sync by {!Pending.on_front_change} (adds to idle queues,
   front-batch exhaustions, expiries); a round costs
   O(changes · log C + m log C) instead of a full nonidle scan, and
   allocates nothing. *)
let run (instance : Instance.t) ~m =
  if m < 1 then invalid_arg "Par_edf.run: m < 1";
  let pending = Pending.create ~num_colors:instance.num_colors in
  let arrivals = Instance.arrivals_by_round instance in
  let dropped = ref 0 in
  let executed = ref 0 in
  let drops_by_color = Array.make instance.num_colors 0 in
  let module Iheap = Rrs_dstruct.Int_indexed_heap in
  let heap = Iheap.create ~capacity:(max instance.num_colors 1) in
  Pending.on_front_change pending (fun color ->
      let deadline = Pending.front_deadline pending color in
      if deadline >= 0 then
        Iheap.update heap color
          (Packed.pack_key ~klass:0 ~deadline ~delay:instance.delay.(color)
             ~color)
      else Iheap.remove heap color);
  let execute_best () =
    let slots = ref m in
    let continue_ = ref true in
    while !slots > 0 && !continue_ do
      if Iheap.is_empty heap then continue_ := false
      else begin
        let color = Iheap.min_key heap in
        (* executing may exhaust the front batch, in which case the
           listener reprices or removes [color] for us *)
        if Pending.execute pending color then begin
          incr executed;
          decr slots
        end
        else Iheap.remove heap color
      end
    done
  in
  let expired = Batch.create () in
  for round = 0 to instance.horizon do
    Pending.expire pending ~now:round expired;
    for i = 0 to Batch.length expired - 1 do
      let color = Batch.color expired i and count = Batch.count expired i in
      dropped := !dropped + count;
      drops_by_color.(color) <- drops_by_color.(color) + count
    done;
    let batch = if round < Array.length arrivals then arrivals.(round) else [] in
    List.iter
      (fun (color, count) ->
        Pending.add pending color
          ~deadline:(round + instance.delay.(color))
          ~count)
      batch;
    execute_best ()
  done;
  { drop_cost = !dropped; executed = !executed; drops_by_color }

let drop_cost instance ~m = (run instance ~m).drop_cost
