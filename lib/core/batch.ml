type t = {
  mutable colors : int array;
  mutable counts : int array;
  mutable len : int;
}

let create () = { colors = [||]; counts = [||]; len = 0 }
let length b = b.len

let color b i =
  if i < 0 || i >= b.len then invalid_arg "Batch.color";
  Array.unsafe_get b.colors i

let count b i =
  if i < 0 || i >= b.len then invalid_arg "Batch.count";
  Array.unsafe_get b.counts i

let clear b = b.len <- 0

let push b color count =
  let n = b.len in
  if n = Array.length b.colors then begin
    let cap = Stdlib.max 8 (2 * n) in
    let grow a =
      let bigger = Array.make cap 0 in
      Array.blit a 0 bigger 0 n;
      bigger
    in
    b.colors <- grow b.colors;
    b.counts <- grow b.counts
  end;
  Array.unsafe_set b.colors n color;
  Array.unsafe_set b.counts n count;
  b.len <- n + 1

let sort_by_color b =
  let colors = b.colors and counts = b.counts in
  for i = 1 to b.len - 1 do
    let c = colors.(i) and k = counts.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && colors.(!j) > c do
      colors.(!j + 1) <- colors.(!j);
      counts.(!j + 1) <- counts.(!j);
      decr j
    done;
    colors.(!j + 1) <- c;
    counts.(!j + 1) <- k
  done

let to_list b = List.init b.len (fun i -> (b.colors.(i), b.counts.(i)))

let of_list pairs =
  let b = create () in
  List.iter (fun (color, count) -> push b color count) pairs;
  b
