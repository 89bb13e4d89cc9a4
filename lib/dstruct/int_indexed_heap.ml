(* Indexed min-heap over int keys with int priorities and -1 sentinels.

   The priority array is a flat [int array] (presence is tracked by the
   [pos] sentinel, so no option box is needed), comparison is native
   [<], and the heap is 4-ary so the children of a node share a cache
   line: no operation allocates or calls through a closure.

   Layout: parent of slot i is (i-1)/4; children are 4i+1 .. 4i+4.

   Safe/unsafe split (after the vicare binary-heaps exemplar): the
   [unsafe_] tier reads and writes without bounds checks and is only
   reachable from the public operations, which validate keys and
   establish 0 <= slot < size first; [check_invariant] exercises the
   full structure (heap property + both index directions) under test. *)

type t = {
  heap : int array; (* heap slot -> key, for slots < size *)
  pos : int array; (* key -> heap slot, or -1 if absent *)
  prio : int array; (* key -> priority; meaningful iff pos.(key) >= 0 *)
  mutable size : int;
  mutable scratch : int array; (* side-heap of slots for [smallest_into] *)
}

let create ~capacity =
  if capacity < 0 then invalid_arg "Int_indexed_heap.create";
  let cap = max capacity 1 in
  {
    heap = Array.make cap (-1);
    pos = Array.make cap (-1);
    prio = Array.make cap min_int;
    size = 0;
    scratch = [||];
  }

let capacity h = Array.length h.heap
let length h = h.size
let is_empty h = h.size = 0

let check_key h key =
  if key < 0 || key >= Array.length h.pos then
    invalid_arg "Int_indexed_heap: key out of range"

let mem h key =
  check_key h key;
  h.pos.(key) >= 0

let priority h key =
  check_key h key;
  if h.pos.(key) < 0 then raise Not_found;
  h.prio.(key)

(* -- unsafe tier: callers guarantee 0 <= slot < size ---------------- *)

let[@inline] unsafe_key h slot = Array.unsafe_get h.heap slot

let[@inline] unsafe_slot_prio h slot =
  Array.unsafe_get h.prio (Array.unsafe_get h.heap slot)

let[@inline] unsafe_place h slot key =
  Array.unsafe_set h.heap slot key;
  Array.unsafe_set h.pos key slot

let rec sift_up h slot =
  if slot > 0 then begin
    let parent = (slot - 1) lsr 2 in
    if unsafe_slot_prio h slot < unsafe_slot_prio h parent then begin
      let k = unsafe_key h slot and pk = unsafe_key h parent in
      unsafe_place h slot pk;
      unsafe_place h parent k;
      sift_up h parent
    end
  end

let rec sift_down h slot =
  let first = (slot lsl 2) + 1 in
  if first < h.size then begin
    let size = h.size in
    let best = first in
    let best =
      if
        first + 1 < size
        && unsafe_slot_prio h (first + 1) < unsafe_slot_prio h best
      then first + 1
      else best
    in
    let best =
      if
        first + 2 < size
        && unsafe_slot_prio h (first + 2) < unsafe_slot_prio h best
      then first + 2
      else best
    in
    let best =
      if
        first + 3 < size
        && unsafe_slot_prio h (first + 3) < unsafe_slot_prio h best
      then first + 3
      else best
    in
    if unsafe_slot_prio h best < unsafe_slot_prio h slot then begin
      let k = unsafe_key h slot and bk = unsafe_key h best in
      unsafe_place h slot bk;
      unsafe_place h best k;
      sift_down h best
    end
  end

(* -- safe public operations ----------------------------------------- *)

let insert h key p =
  check_key h key;
  if h.pos.(key) >= 0 then invalid_arg "Int_indexed_heap.insert: key present";
  let slot = h.size in
  h.heap.(slot) <- key;
  h.pos.(key) <- slot;
  h.prio.(key) <- p;
  h.size <- slot + 1;
  sift_up h slot

let update h key p =
  check_key h key;
  let slot = h.pos.(key) in
  if slot < 0 then insert h key p
  else begin
    h.prio.(key) <- p;
    sift_up h slot;
    sift_down h h.pos.(key)
  end

let remove h key =
  check_key h key;
  let slot = h.pos.(key) in
  if slot >= 0 then begin
    let last = h.size - 1 in
    h.size <- last;
    h.pos.(key) <- -1;
    if slot <> last then begin
      let moved = h.heap.(last) in
      h.heap.(slot) <- moved;
      h.pos.(moved) <- slot;
      sift_up h slot;
      sift_down h h.pos.(moved)
    end;
    h.heap.(last) <- -1
  end

let min_key h = if h.size = 0 then raise Not_found else h.heap.(0)

let min h =
  if h.size = 0 then raise Not_found;
  let key = h.heap.(0) in
  (key, h.prio.(key))

let pop_min h =
  let binding = min h in
  remove h (fst binding);
  binding

let pop_min_opt h = if h.size = 0 then None else Some (pop_min h)
let peek_min_opt h = if h.size = 0 then None else Some (min h)

let clear h =
  for slot = 0 to h.size - 1 do
    h.pos.(h.heap.(slot)) <- -1;
    h.heap.(slot) <- -1
  done;
  h.size <- 0

let iter f h =
  for slot = 0 to h.size - 1 do
    let key = h.heap.(slot) in
    f key h.prio.(key)
  done

(* -- k-smallest without modifying the heap --------------------------

   Top-down exploration with a side binary heap of candidate *slots*
   (ordered by the slot's priority in [h]), so only O(k) nodes of the
   4-ary heap are touched and the main heap stays untouched.  The side
   heap lives in [h.scratch], reused across queries: a warm query
   allocates nothing. *)

let rec side_up h side i =
  if i > 0 then begin
    let parent = (i - 1) lsr 1 in
    let s = Array.unsafe_get side i and ps = Array.unsafe_get side parent in
    if unsafe_slot_prio h s < unsafe_slot_prio h ps then begin
      Array.unsafe_set side i ps;
      Array.unsafe_set side parent s;
      side_up h side parent
    end
  end

let rec side_down h side n i =
  let left = (i lsl 1) + 1 in
  if left < n then begin
    let best =
      if
        left + 1 < n
        && unsafe_slot_prio h (Array.unsafe_get side (left + 1))
           < unsafe_slot_prio h (Array.unsafe_get side left)
      then left + 1
      else left
    in
    let s = Array.unsafe_get side i and bs = Array.unsafe_get side best in
    if unsafe_slot_prio h bs < unsafe_slot_prio h s then begin
      Array.unsafe_set side i bs;
      Array.unsafe_set side best s;
      side_down h side n best
    end
  end

let ensure_scratch h n =
  if Array.length h.scratch < n then
    h.scratch <- Array.make (Stdlib.max n (2 * Array.length h.scratch)) 0

let smallest_into h k ~out =
  let wanted = Stdlib.min k h.size in
  if wanted <= 0 then 0
  else begin
    if Array.length out < wanted then
      invalid_arg "Int_indexed_heap.smallest_into: out buffer too small";
    (* each extraction pops one slot and pushes at most 4 children:
       the side heap never exceeds 3*wanted + 1 entries *)
    ensure_scratch h ((3 * wanted) + 1);
    let side = h.scratch in
    Array.unsafe_set side 0 0;
    let n = ref 1 in
    let taken = ref 0 in
    while !taken < wanted do
      let slot = Array.unsafe_get side 0 in
      Array.unsafe_set out !taken (unsafe_key h slot);
      incr taken;
      decr n;
      Array.unsafe_set side 0 (Array.unsafe_get side !n);
      side_down h side !n 0;
      let first = (slot lsl 2) + 1 in
      let last = Stdlib.min (first + 3) (h.size - 1) in
      for child = first to last do
        Array.unsafe_set side !n child;
        side_up h side !n;
        incr n
      done
    done;
    wanted
  end

let smallest h k =
  let wanted = Stdlib.min k h.size in
  if wanted <= 0 then []
  else begin
    let out = Array.make wanted 0 in
    let n = smallest_into h k ~out in
    List.init n (fun i -> (out.(i), h.prio.(out.(i))))
  end

let check_invariant h =
  let ok = ref (h.size >= 0 && h.size <= Array.length h.heap) in
  (* slot -> key mapping must be a valid partial bijection first; only
     then is reading priorities through it safe *)
  if !ok then
    for slot = 0 to h.size - 1 do
      let key = h.heap.(slot) in
      if key < 0 || key >= Array.length h.pos then ok := false
      else if h.pos.(key) <> slot then ok := false
    done;
  if !ok then begin
    for slot = 1 to h.size - 1 do
      if h.prio.(h.heap.((slot - 1) lsr 2)) > h.prio.(h.heap.(slot)) then
        ok := false
    done;
    Array.iteri
      (fun key slot ->
        if slot >= h.size then ok := false
        else if slot >= 0 && h.heap.(slot) <> key then ok := false)
      h.pos
  end;
  !ok
