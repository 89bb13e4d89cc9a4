type view = {
  round : Types.round;
  mini_round : int;
  arrivals : Batch.t;
  dropped : Batch.t;
  cache : Types.color array;
  pending : Pending.t;
}

type codec = { save : Wire.writer -> unit; load : Wire.reader -> unit }

type t = {
  name : string;
  reconfigure : view -> Types.color array;
  codec : codec option;
}

let stateless = { save = ignore; load = ignore }

type factory = Instance.t -> n:int -> t

(* Ascending insertion sort of a.(0 .. len-1) — the flat-buffer
   selection sort for candidate sets of O(cache size) packed keys,
   where insertion sort on an int array beats an allocating merge
   sort.  Since packed rank keys embed the color as the last tie-break,
   sorting the ints is exactly sorting (color, key) pairs by rank. *)
let sort_int_prefix (a : int array) len =
  for i = 1 to len - 1 do
    let v = a.(i) in
    let j = ref (i - 1) in
    while !j >= 0 && a.(!j) > v do
      a.(!j + 1) <- a.(!j);
      decr j
    done;
    a.(!j + 1) <- v
  done

let stable_assign ~current ~desired =
  let q = Array.length current in
  if List.length desired > q then
    invalid_arg "Policy.stable_assign: too many desired colors";
  let wanted = Hashtbl.create (2 * q) in
  List.iter
    (fun c ->
      if Hashtbl.mem wanted c then
        invalid_arg "Policy.stable_assign: duplicate desired color";
      Hashtbl.add wanted c `Unplaced)
    desired;
  let result = Array.copy current in
  (* pass 1: desired colors already in place stay *)
  Array.iter
    (fun c ->
      match Hashtbl.find_opt wanted c with
      | Some `Unplaced -> Hashtbl.replace wanted c `Placed
      | Some `Placed | None -> ())
    result;
  let newcomers =
    List.filter (fun c -> Hashtbl.find_opt wanted c = Some `Unplaced) desired
  in
  (* pass 2: newcomers take the slots whose occupants are not desired *)
  let remaining = ref newcomers in
  Array.iteri
    (fun slot occupant ->
      match !remaining with
      | [] -> ()
      | c :: rest ->
          if not (Hashtbl.mem wanted occupant) then begin
            result.(slot) <- c;
            remaining := rest
          end)
    result;
  if !remaining <> [] then
    invalid_arg "Policy.stable_assign: no free slot for a desired color";
  result

let replicate ~distinct ~n =
  let half = Array.length distinct in
  if n <> 2 * half then invalid_arg "Policy.replicate";
  Array.init n (fun i -> if i < half then distinct.(i) else distinct.(i - half))
