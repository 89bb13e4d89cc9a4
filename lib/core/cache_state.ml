type t = {
  slots : Types.color array;
  flags : bool array; (* color -> currently in a distinct slot *)
  wanted : int array; (* color -> scratch for assign_array; 0 outside *)
  mutable desired_buf : int array; (* scratch for the list-based assign *)
}

let create ~num_colors ~distinct_slots =
  {
    slots = Array.make distinct_slots Types.black;
    flags = Array.make (max num_colors 1) false;
    wanted = Array.make (max num_colors 1) 0;
    desired_buf = [||];
  }

let mem t color = color >= 0 && color < Array.length t.flags && t.flags.(color)

let cached_colors t =
  let out = ref [] in
  for color = Array.length t.flags - 1 downto 0 do
    if t.flags.(color) then out := color :: !out
  done;
  !out

(* Stable slot assignment over the pre-validated [desired] prefix of
   [buf] — the allocation-free equivalent of [Policy.stable_assign]
   (same placement, same error conditions): desired colors already in a
   slot stay put; newcomers take, in desired order, the left-to-right
   slots whose occupants are not desired.  [t.wanted] is the scratch
   Hashtbl replacement (0 = not desired, 1 = desired unplaced,
   2 = desired placed); it is restored to all-zero before returning or
   raising, so the next call starts clean. *)
let assign_array t buf len =
  let slots = t.slots in
  let q = Array.length slots in
  let fail msg =
    (* restore the scratch before raising; entries past a failed
       validation may be out of range and were never set *)
    for i = 0 to len - 1 do
      let c = buf.(i) in
      if c >= 0 && c < Array.length t.wanted then t.wanted.(c) <- 0
    done;
    invalid_arg msg
  in
  if len > q then fail "Policy.stable_assign: too many desired colors";
  for i = 0 to len - 1 do
    let c = buf.(i) in
    if c < 0 || c >= Array.length t.wanted then
      fail "Cache_state.assign: color out of range";
    if t.wanted.(c) <> 0 then
      fail "Policy.stable_assign: duplicate desired color";
    t.wanted.(c) <- 1
  done;
  (* pass 1: desired colors already in place stay *)
  for slot = 0 to q - 1 do
    let c = slots.(slot) in
    if c >= 0 && t.wanted.(c) = 1 then t.wanted.(c) <- 2
  done;
  (* pass 2: unplaced desired colors, in desired order, take the slots
     whose occupants are not desired (left to right) *)
  let slot = ref 0 in
  for i = 0 to len - 1 do
    let c = buf.(i) in
    if t.wanted.(c) = 1 then begin
      while
        !slot < q
        && (let occ = slots.(!slot) in
            occ >= 0 && t.wanted.(occ) <> 0)
      do
        incr slot
      done;
      if !slot >= q then fail "Policy.stable_assign: no free slot for a desired color";
      (let evicted = slots.(!slot) in
       if evicted >= 0 then t.flags.(evicted) <- false);
      slots.(!slot) <- c;
      t.wanted.(c) <- 2
    end
  done;
  (* refresh membership flags and clear the scratch *)
  for i = 0 to len - 1 do
    t.wanted.(buf.(i)) <- 0
  done;
  for s = 0 to q - 1 do
    let c = slots.(s) in
    if c >= 0 then t.flags.(c) <- true
  done

let assign t ~desired =
  let len = List.length desired in
  if Array.length t.desired_buf < len then
    t.desired_buf <- Array.make (max 4 len) 0;
  List.iteri (fun i c -> t.desired_buf.(i) <- c) desired;
  assign_array t t.desired_buf len

let to_assignment t ~replicated =
  if replicated then
    Policy.replicate ~distinct:t.slots ~n:(2 * Array.length t.slots)
  else Array.copy t.slots

let distinct t = Array.copy t.slots
let live_slots t = t.slots

(* The membership flags are a function of the slots. *)
let save t w = Wire.add_ints w t.slots

let load t r =
  let q = Array.length t.slots in
  if Wire.count r <> q then raise (Wire.Malformed "cache state: slot count differs");
  Wire.read_into r t.slots ~pos:0 ~len:q;
  Array.fill t.flags 0 (Array.length t.flags) false;
  for i = 0 to q - 1 do
    let c = t.slots.(i) in
    if c <> Types.black && (c < 0 || c >= Array.length t.flags) then
      raise (Wire.Malformed "cache state: color out of range");
    if c >= 0 then t.flags.(c) <- true
  done

let codec ?eligibility t =
  match eligibility with
  | None -> { Policy.save = save t; load = load t }
  | Some e ->
      {
        Policy.save =
          (fun w ->
            Eligibility.save e w;
            save t w);
        load =
          (fun r ->
            Eligibility.load e r;
            load t r);
      }
