(* Round table, open addressing with linear probing: [keys.(s)] is a
   round or -1 (free), and that round's batch is the chain of arena
   entries from [heads.(s)] to [tails.(s)], linked by [next] and ended
   by -1.  Freed entries are chained from [free]. *)
type t = {
  mutable keys : int array;
  mutable heads : int array;
  mutable tails : int array;
  mutable rounds : int;
  mutable colors : int array;
  mutable counts : int array;
  mutable next : int array;
  mutable free : int;
  mutable used : int; (* entries ever handed out: the arena's high-water mark *)
  mutable entries : int; (* entries in some batch *)
  mutable jobs : int;
}

let create () =
  {
    keys = Array.make 64 (-1);
    heads = Array.make 64 0;
    tails = Array.make 64 0;
    rounds = 0;
    colors = [||];
    counts = [||];
    next = [||];
    free = -1;
    used = 0;
    entries = 0;
    jobs = 0;
  }

let jobs t = t.jobs

(* The slot holding [round], or the free slot where it would go (the
   table is never more than half full). *)
let find t round =
  let mask = Array.length t.keys - 1 in
  let s = ref (round land mask) in
  while t.keys.(!s) <> round && t.keys.(!s) >= 0 do
    s := (!s + 1) land mask
  done;
  !s

let mem t round = t.keys.(find t round) = round

let grow_table t =
  let keys = t.keys and heads = t.heads and tails = t.tails in
  let size = 2 * Array.length keys in
  t.keys <- Array.make size (-1);
  t.heads <- Array.make size 0;
  t.tails <- Array.make size 0;
  Array.iteri
    (fun s round ->
      if round >= 0 then begin
        let s' = find t round in
        t.keys.(s') <- round;
        t.heads.(s') <- heads.(s);
        t.tails.(s') <- tails.(s)
      end)
    keys

let new_entry t color count =
  let e =
    if t.free >= 0 then begin
      let e = t.free in
      t.free <- t.next.(e);
      e
    end
    else begin
      if t.used = Array.length t.colors then begin
        let extend a =
          let bigger = Array.make (Stdlib.max 64 (2 * t.used)) 0 in
          Array.blit a 0 bigger 0 t.used;
          bigger
        in
        t.colors <- extend t.colors;
        t.counts <- extend t.counts;
        t.next <- extend t.next
      end;
      t.used <- t.used + 1;
      t.used - 1
    end
  in
  t.colors.(e) <- color;
  t.counts.(e) <- count;
  t.next.(e) <- -1;
  t.entries <- t.entries + 1;
  e

let add t ~round ~color ~count =
  if 2 * (t.rounds + 1) > Array.length t.keys then grow_table t;
  let e = new_entry t color count in
  let s = find t round in
  if t.keys.(s) = round then t.next.(t.tails.(s)) <- e
  else begin
    t.keys.(s) <- round;
    t.heads.(s) <- e;
    t.rounds <- t.rounds + 1
  end;
  t.tails.(s) <- e;
  t.jobs <- t.jobs + count

(* Free slot [s] by backward-shift deletion: later members of its probe
   run move up, so no lookup stops early at the hole. *)
let remove_slot t s =
  let mask = Array.length t.keys - 1 in
  let hole = ref s and j = ref ((s + 1) land mask) in
  while t.keys.(!j) >= 0 do
    let home = t.keys.(!j) land mask in
    (* [j] may move into the hole unless its home lies cyclically in
       (hole, j] *)
    if (!j - home) land mask >= (!j - !hole) land mask then begin
      t.keys.(!hole) <- t.keys.(!j);
      t.heads.(!hole) <- t.heads.(!j);
      t.tails.(!hole) <- t.tails.(!j);
      hole := !j
    end;
    j := (!j + 1) land mask
  done;
  t.keys.(!hole) <- -1;
  t.rounds <- t.rounds - 1

let take t ~round out =
  Batch.clear out;
  let s = find t round in
  if t.keys.(s) = round then begin
    let e = ref t.heads.(s) in
    while !e >= 0 do
      let entry = !e in
      Batch.push out t.colors.(entry) t.counts.(entry);
      t.jobs <- t.jobs - t.counts.(entry);
      t.entries <- t.entries - 1;
      e := t.next.(entry);
      t.next.(entry) <- t.free;
      t.free <- entry
    done;
    remove_slot t s
  end

(* Heapsort of a.(0 .. n-1), ascending, in place: no allocation, and
   O(n log n) however the table's slot order rotates the rounds. *)
let rec sift (a : int array) root stop =
  let child = (2 * root) + 1 in
  if child < stop then begin
    let child =
      if child + 1 < stop && a.(child + 1) > a.(child) then child + 1 else child
    in
    if a.(child) > a.(root) then begin
      let v = a.(root) in
      a.(root) <- a.(child);
      a.(child) <- v;
      sift a child stop
    end
  end

let sort_prefix a n =
  for root = (n / 2) - 1 downto 0 do
    sift a root n
  done;
  for stop = n - 1 downto 1 do
    let v = a.(0) in
    a.(0) <- a.(stop);
    a.(stop) <- v;
    sift a 0 stop
  done

(* The four columns straight into the writer's scratch array: the
   rounds (sorted in place), then each round's chain walked once for
   its length, colors and counts. *)
let save t w =
  let nr = t.rounds and np = t.entries in
  let size = (2 * nr) + (2 * np) in
  let a = Wire.scratch w size in
  let j = ref 0 in
  for s = 0 to Array.length t.keys - 1 do
    if t.keys.(s) >= 0 then begin
      a.(!j) <- t.keys.(s);
      incr j
    end
  done;
  sort_prefix a nr;
  let k = ref (2 * nr) in
  for j = 0 to nr - 1 do
    let first = !k in
    let e = ref t.heads.(find t a.(j)) in
    while !e >= 0 do
      a.(!k) <- t.colors.(!e);
      a.(!k + np) <- t.counts.(!e);
      incr k;
      e := t.next.(!e)
    done;
    a.(nr + j) <- !k - first
  done;
  Wire.add_int w nr;
  Wire.add_ints_prefix w a size

(* The rounds and batch lengths are staged in one small array; the
   colors and counts, [save]'s last two columns, are decoded straight
   into the arena, whose entries they fill front to back, and each
   round's chain is then linked over its entries. *)
let load t r ~from ~num_colors =
  let malformed what = raise (Wire.Malformed ("session state: " ^ what)) in
  if t.rounds > 0 || t.used > 0 then invalid_arg "Future_batches.load: not empty";
  let nr = Wire.int r in
  let size = Wire.count r in
  let np = (size - (2 * nr)) / 2 in
  if nr < 0 || np < 0 || size <> (2 * nr) + (2 * np) then
    malformed "arrivals length";
  let rounds = Array.make (2 * nr) 0 in
  Wire.read_into r rounds ~pos:0 ~len:(2 * nr);
  t.colors <- Array.make np 0;
  t.counts <- Array.make np 0;
  t.next <- Array.make np (-1);
  Wire.read_into r t.colors ~pos:0 ~len:np;
  Wire.read_into r t.counts ~pos:0 ~len:np;
  let k = ref 0 in
  for j = 0 to nr - 1 do
    let at = rounds.(j) and len = rounds.(nr + j) in
    (* ascending, as [save] sorts them *)
    if at < from || (j > 0 && at <= rounds.(j - 1)) then malformed "arrival round";
    if len < 1 || !k + len > np then malformed "arrival batch length";
    if 2 * (t.rounds + 1) > Array.length t.keys then grow_table t;
    let s = find t at in
    t.keys.(s) <- at;
    t.heads.(s) <- !k;
    t.tails.(s) <- !k + len - 1;
    t.rounds <- t.rounds + 1;
    for e = !k to !k + len - 1 do
      let color = t.colors.(e) and count = t.counts.(e) in
      if color < 0 || color >= num_colors || count <= 0 then
        malformed "arrival batch";
      if e > !k then t.next.(e - 1) <- e;
      t.jobs <- t.jobs + count
    done;
    k := !k + len
  done;
  if !k <> np then malformed "arrival batch lengths";
  t.used <- np;
  t.entries <- np
