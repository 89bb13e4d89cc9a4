type bucket = { deadline : int; mutable count : int }
type color_queue = { q : bucket Queue.t; mutable back : bucket option }

type t = {
  queues : color_queue array; (* per color, deadline-ascending *)
  totals : int array;
  due : Rrs_dstruct.Int_heap.t; (* packed (deadline, color), lazy *)
  mutable grand_total : int;
  mutable nonidle : int;
  (* listeners in registration order, iterated without allocating *)
  mutable front_listeners : (int -> unit) array;
  mutable front_listener_count : int;
}

let create ~num_colors =
  if num_colors > Packed.max_colors then
    invalid_arg "Pending.create: num_colors exceeds the packed color field";
  {
    queues =
      Array.init num_colors (fun _ -> { q = Queue.create (); back = None });
    totals = Array.make num_colors 0;
    due = Rrs_dstruct.Int_heap.create ();
    grand_total = 0;
    nonidle = 0;
    front_listeners = [||];
    front_listener_count = 0;
  }

let on_front_change t f =
  let n = t.front_listener_count in
  if n = Array.length t.front_listeners then begin
    let bigger = Array.make (Stdlib.max 4 (2 * n)) f in
    Array.blit t.front_listeners 0 bigger 0 n;
    t.front_listeners <- bigger
  end;
  t.front_listeners.(n) <- f;
  t.front_listener_count <- n + 1

let notify_front t color =
  for i = 0 to t.front_listener_count - 1 do
    (Array.unsafe_get t.front_listeners i) color
  done

let num_colors t = Array.length t.queues

let bump t color delta =
  let before = t.totals.(color) in
  let after = before + delta in
  t.totals.(color) <- after;
  t.grand_total <- t.grand_total + delta;
  if before = 0 && after > 0 then t.nonidle <- t.nonidle + 1
  else if before > 0 && after = 0 then t.nonidle <- t.nonidle - 1

let sync_back cq = if Queue.is_empty cq.q then cq.back <- None

let add t color ~deadline ~count =
  if count < 0 then invalid_arg "Pending.add: negative count";
  if count > 0 then begin
    let cq = t.queues.(color) in
    (match cq.back with
    | Some back when deadline < back.deadline ->
        invalid_arg "Pending.add: deadline out of order"
    | _ -> ());
    let was_idle = Queue.is_empty cq.q in
    (match cq.back with
    | Some back when back.deadline = deadline ->
        back.count <- back.count + count
    | _ ->
        let bucket = { deadline; count } in
        Queue.add bucket cq.q;
        cq.back <- Some bucket;
        Rrs_dstruct.Int_heap.add t.due
          (Packed.pack_pair ~value:deadline ~color));
    bump t color count;
    (* the front (earliest deadline / idleness) only changes when the
       queue was empty; appends behind an existing front are invisible
       to deadline-keyed consumers *)
    if was_idle then notify_front t color
  end

let total t color = t.totals.(color)
let grand_total t = t.grand_total
let is_idle t color = t.totals.(color) = 0

(* Zero-alloc front accessor for the hot path; [-1] encodes idleness
   (deadlines are non-negative by construction). *)
let front_deadline t color =
  let q = t.queues.(color).q in
  if Queue.is_empty q then -1 else (Queue.peek q).deadline

let earliest_deadline t color =
  let d = front_deadline t color in
  if d < 0 then None else Some d

(* Consume the earliest-deadline pending job; [true] if one existed.
   The option-returning wrapper below allocates and is kept off the
   engine's per-resource execution loop. *)
let execute t color =
  let cq = t.queues.(color) in
  if Queue.is_empty cq.q then false
  else begin
    let b = Queue.peek cq.q in
    b.count <- b.count - 1;
    let exhausted = b.count = 0 in
    if exhausted then begin
      ignore (Queue.pop cq.q);
      sync_back cq
    end;
    bump t color (-1);
    if exhausted then notify_front t color;
    true
  end

let execute_one t color =
  let deadline = front_deadline t color in
  if execute t color then Some deadline else None

(* Drain this color's expired front buckets; the heap entry that led us
   here may be stale (bucket already consumed), which is fine. *)
let expire_color t color ~now =
  let cq = t.queues.(color) in
  let dropped = ref 0 in
  let continue = ref true in
  while !continue do
    match Queue.peek_opt cq.q with
    | Some b when b.deadline <= now ->
        dropped := !dropped + b.count;
        ignore (Queue.pop cq.q)
    | _ -> continue := false
  done;
  sync_back cq;
  if !dropped > 0 then begin
    bump t color (- !dropped);
    notify_front t color
  end;
  !dropped

let expire t ~now =
  let affected = ref [] in
  let continue = ref true in
  while !continue do
    if Rrs_dstruct.Int_heap.is_empty t.due then continue := false
    else begin
      let packed = Rrs_dstruct.Int_heap.min t.due in
      if Packed.pair_value packed <= now then begin
        ignore (Rrs_dstruct.Int_heap.pop_min t.due);
        let color = Packed.pair_color packed in
        let dropped = expire_color t color ~now in
        if dropped > 0 then affected := (color, dropped) :: !affected
      end
      else
        (* first entry not due yet: stop without touching it *)
        continue := false
    end
  done;
  List.sort compare !affected

let drop_all t color =
  let cq = t.queues.(color) in
  let dropped = t.totals.(color) in
  Queue.clear cq.q;
  cq.back <- None;
  if dropped > 0 then begin
    bump t color (-dropped);
    notify_front t color
  end;
  dropped

let nonidle_count t = t.nonidle

let iter_nonidle t f =
  Array.iteri (fun color n -> if n > 0 then f color n) t.totals

let snapshot t =
  Array.map
    (fun cq ->
      List.rev (Queue.fold (fun acc b -> (b.deadline, b.count) :: acc) [] cq.q))
    t.queues

(* Every live bucket as one flat int array of three columns: the
   bucket count of every color, then the deadlines and the job counts
   of all buckets, color by color in queue order.  The due heap is not
   saved: [load] re-adds one entry per bucket, and the heap's stale
   entries (consumed buckets) were never observable. *)
let save t w =
  let c = Array.length t.queues in
  let buckets = ref 0 in
  Array.iteri
    (fun color cq -> if t.totals.(color) > 0 then buckets := !buckets + Queue.length cq.q)
    t.queues;
  let b = !buckets in
  let len = c + (2 * b) in
  let a = Wire.scratch w len in
  let k = ref c in
  let put bucket =
    a.(!k) <- bucket.deadline;
    a.(!k + b) <- bucket.count;
    incr k
  in
  Array.iteri
    (fun color cq ->
      if t.totals.(color) = 0 then a.(color) <- 0
      else begin
        a.(color) <- Queue.length cq.q;
        Queue.iter put cq.q
      end)
    t.queues;
  Wire.add_ints_prefix w a len

let load t r =
  let a = Wire.ints r in
  let c = num_colors t in
  let b = (Array.length a - c) / 2 in
  if Array.length a < c || Array.length a <> c + (2 * b) then
    raise (Wire.Malformed "pending: bad length");
  let k = ref c in
  for color = 0 to c - 1 do
    for _ = 1 to a.(color) do
      if !k >= c + b then raise (Wire.Malformed "pending: bucket counts");
      let deadline = a.(!k) and count = a.(!k + b) in
      if deadline < 0 || count <= 0 then
        raise (Wire.Malformed "pending: bad bucket");
      add t color ~deadline ~count;
      incr k
    done
  done;
  if !k <> c + b then raise (Wire.Malformed "pending: bucket counts")
