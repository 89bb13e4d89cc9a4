type color = int
type round = int

let black = -1

type arrival = { round : round; color : color; count : int }

let compare_arrival a b =
  match compare a.round b.round with 0 -> compare a.color b.color | c -> c

let pp_arrival fmt a =
  Format.fprintf fmt "@[<h>round %d: %d job%s of color %d@]" a.round a.count
    (if a.count = 1 then "" else "s")
    a.color

type phase = Drop_phase | Arrival_phase | Reconfig_phase | Execution_phase

let is_power_of_two n = n > 0 && n land (n - 1) = 0

let floor_pow2 n =
  if n < 1 then invalid_arg "Types.floor_pow2";
  let p = ref 1 in
  while !p * 2 <= n do
    p := !p * 2
  done;
  !p

let ceil_pow2 n =
  if n < 1 then invalid_arg "Types.ceil_pow2";
  let p = ref 1 in
  while !p < n do
    p := !p * 2
  done;
  !p
