(* Each color's buckets live in one flat int ring: bucket [i] (front
   first) sits at physical slot [p = (head + i) land (capacity - 1)],
   its deadline at [ring.(2p)] and its job count at [ring.(2p + 1)].
   Capacities are powers of two; a color that never had jobs holds the
   shared empty array. *)
type t = {
  rings : int array array;
  heads : int array; (* physical slot of the front bucket *)
  lens : int array; (* live buckets *)
  totals : int array;
  due : Rrs_dstruct.Int_heap.t; (* packed (deadline, color), lazy *)
  mutable grand_total : int;
  mutable nonidle : int;
  mutable on_front_change : int -> unit;
}

let create ~num_colors =
  if num_colors > Packed.max_colors then
    invalid_arg "Pending.create: num_colors exceeds the packed color field";
  {
    rings = Array.make num_colors [||];
    heads = Array.make num_colors 0;
    lens = Array.make num_colors 0;
    totals = Array.make num_colors 0;
    due = Rrs_dstruct.Int_heap.create ();
    grand_total = 0;
    nonidle = 0;
    on_front_change = ignore;
  }

let on_front_change t f = t.on_front_change <- f

let num_colors t = Array.length t.rings

let bump t color delta =
  let before = t.totals.(color) in
  let after = before + delta in
  t.totals.(color) <- after;
  t.grand_total <- t.grand_total + delta;
  if before = 0 && after > 0 then t.nonidle <- t.nonidle + 1
  else if before > 0 && after = 0 then t.nonidle <- t.nonidle - 1

(* Physical slot of the color's [i]-th bucket. *)
let slot t color i =
  (t.heads.(color) + i) land ((Array.length t.rings.(color) / 2) - 1)

(* Double the color's ring, unwrapping its buckets to start at slot 0. *)
let grow t color =
  let ring = t.rings.(color) in
  let cap = Array.length ring / 2 in
  let bigger = Array.make (2 * Stdlib.max 4 (2 * cap)) 0 in
  for i = 0 to t.lens.(color) - 1 do
    let p = slot t color i in
    bigger.(2 * i) <- ring.(2 * p);
    bigger.((2 * i) + 1) <- ring.((2 * p) + 1)
  done;
  t.rings.(color) <- bigger;
  t.heads.(color) <- 0

let add t color ~deadline ~count =
  if count < 0 then invalid_arg "Pending.add: negative count";
  if count > 0 then begin
    let len = t.lens.(color) in
    let back = if len = 0 then -1 else 2 * slot t color (len - 1) in
    if back >= 0 && deadline < t.rings.(color).(back) then
      invalid_arg "Pending.add: deadline out of order";
    if back >= 0 && t.rings.(color).(back) = deadline then
      t.rings.(color).(back + 1) <- t.rings.(color).(back + 1) + count
    else begin
      if 2 * len = Array.length t.rings.(color) then grow t color;
      let p = 2 * slot t color len in
      let ring = t.rings.(color) in
      ring.(p) <- deadline;
      ring.(p + 1) <- count;
      t.lens.(color) <- len + 1;
      Rrs_dstruct.Int_heap.add t.due (Packed.pack_pair ~value:deadline ~color)
    end;
    bump t color count;
    (* the front (earliest deadline / idleness) only changes when the
       ring was empty; appends behind an existing front are invisible
       to deadline-keyed consumers *)
    if len = 0 then t.on_front_change color
  end

let total t color = t.totals.(color)
let grand_total t = t.grand_total
let is_idle t color = t.totals.(color) = 0

(* Zero-alloc front accessor for the hot path; [-1] encodes idleness
   (deadlines are non-negative by construction). *)
let front_deadline t color =
  if t.lens.(color) = 0 then -1 else t.rings.(color).(2 * t.heads.(color))

let earliest_deadline t color =
  let d = front_deadline t color in
  if d < 0 then None else Some d

(* Remove the color's front bucket. *)
let pop_front t color =
  t.heads.(color) <- slot t color 1;
  t.lens.(color) <- t.lens.(color) - 1

(* Consume the earliest-deadline pending job; [true] if one existed.
   The option-returning wrapper below allocates and is kept off the
   engine's per-resource execution loop. *)
let execute t color =
  if t.lens.(color) = 0 then false
  else begin
    let ring = t.rings.(color) in
    let c = (2 * t.heads.(color)) + 1 in
    ring.(c) <- ring.(c) - 1;
    let exhausted = ring.(c) = 0 in
    if exhausted then pop_front t color;
    bump t color (-1);
    if exhausted then t.on_front_change color;
    true
  end

let execute_one t color =
  let deadline = front_deadline t color in
  if execute t color then Some deadline else None

(* Drain this color's expired front buckets; the heap entry that led us
   here may be stale (bucket already consumed), which is fine. *)
let expire_color t color ~now =
  let ring = t.rings.(color) in
  let dropped = ref 0 in
  while t.lens.(color) > 0 && ring.(2 * t.heads.(color)) <= now do
    dropped := !dropped + ring.((2 * t.heads.(color)) + 1);
    pop_front t color
  done;
  if !dropped > 0 then begin
    bump t color (- !dropped);
    t.on_front_change color
  end;
  !dropped

(* The first visit of a color drains all of its due buckets, so each
   color lands in [out] at most once; the due heap pops by deadline
   first, hence the final sort (linear when, as in a round-by-round
   run, every due entry has the same deadline). *)
let expire t ~now out =
  Batch.clear out;
  let continue = ref true in
  while !continue do
    if Rrs_dstruct.Int_heap.is_empty t.due then continue := false
    else begin
      let packed = Rrs_dstruct.Int_heap.min t.due in
      if Packed.pair_value packed <= now then begin
        ignore (Rrs_dstruct.Int_heap.pop_min t.due);
        let color = Packed.pair_color packed in
        let dropped = expire_color t color ~now in
        if dropped > 0 then Batch.push out color dropped
      end
      else
        (* first entry not due yet: stop without touching it *)
        continue := false
    end
  done;
  Batch.sort_by_color out

let nonidle_count t = t.nonidle

let iter_nonidle t f =
  Array.iteri (fun color n -> if n > 0 then f color n) t.totals

(* Every live bucket as one flat int array of three columns: the
   bucket count of every color, then the deadlines and the job counts
   of all buckets, color by color front first.  The due heap is not
   saved: [load] re-adds one entry per bucket, and the heap's stale
   entries (consumed buckets) were never observable. *)
let save t w =
  let c = num_colors t in
  let b = Array.fold_left ( + ) 0 t.lens in
  let len = c + (2 * b) in
  let a = Wire.scratch w len in
  let k = ref c in
  for color = 0 to c - 1 do
    let ring = t.rings.(color) in
    a.(color) <- t.lens.(color);
    for i = 0 to t.lens.(color) - 1 do
      let p = 2 * slot t color i in
      a.(!k) <- ring.(p);
      a.(!k + b) <- ring.(p + 1);
      incr k
    done
  done;
  Wire.add_ints_prefix w a len

(* The bucket counts are decoded into [lens], each color's ring is
   sized for them (the capacity [add] would have grown it to), and the
   deadline and job-count columns go straight into the rings' slots. *)
let load t r =
  let malformed what = raise (Wire.Malformed ("pending: " ^ what)) in
  let c = num_colors t in
  let size = Wire.count r in
  let b = (size - c) / 2 in
  if size < c || size <> c + (2 * b) then malformed "bad length";
  if t.grand_total <> 0 then invalid_arg "Pending.load: the store is not empty";
  Wire.read_into r t.lens ~pos:0 ~len:c;
  let left = ref b in
  for color = 0 to c - 1 do
    let len = t.lens.(color) in
    if len < 0 || len > !left then malformed "bucket counts";
    left := !left - len;
    if len > 0 then begin
      let cap = ref 4 in
      while !cap < len do
        cap := 2 * !cap
      done;
      t.rings.(color) <- Array.make (2 * !cap) 0;
      t.heads.(color) <- 0
    end
  done;
  if !left <> 0 then malformed "bucket counts";
  for column = 0 to 1 do
    for color = 0 to c - 1 do
      let ring = t.rings.(color) in
      for i = 0 to t.lens.(color) - 1 do
        ring.((2 * i) + column) <- Wire.int r
      done
    done
  done;
  for color = 0 to c - 1 do
    let ring = t.rings.(color) and len = t.lens.(color) in
    for i = 0 to len - 1 do
      let deadline = ring.(2 * i) and count = ring.((2 * i) + 1) in
      (* strictly increasing: [add] merges a bucket into an equal one *)
      if deadline < 0 || count <= 0 || (i > 0 && deadline <= ring.((2 * i) - 2))
      then malformed "bad bucket";
      Rrs_dstruct.Int_heap.add t.due (Packed.pack_pair ~value:deadline ~color);
      bump t color count
    done;
    if len > 0 then t.on_front_change color
  done
