exception Malformed of string

(* ---- writing ------------------------------------------------------ *)

type writer = {
  mutable buf : Bytes.t;
  mutable len : int;
  mutable scratch : int array;
}

let writer ?(capacity = 256) () =
  { buf = Bytes.create (max 16 capacity); len = 0; scratch = [||] }
let clear w = w.len <- 0
let length w = w.len
let contents w = Bytes.sub_string w.buf 0 w.len
let write_fd fd w = ignore (Unix.write fd w.buf 0 w.len)

let grow w need =
  let bigger = Bytes.create (max need (2 * Bytes.length w.buf)) in
  Bytes.blit w.buf 0 bigger 0 w.len;
  w.buf <- bigger

let[@inline] reserve w extra =
  let need = w.len + extra in
  if need > Bytes.length w.buf then grow w need

(* eight bytes at a time; the int64s compared at their type stay
   unboxed *)
let equal_bytes w b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Wire.equal_bytes";
  let buf = w.buf in
  let rec words i =
    if i + 8 > len then tail i
    else
      (Bytes.get_int64_ne buf i : int64) = Bytes.get_int64_ne b (pos + i)
      && words (i + 8)
  and tail i =
    i = len || (Bytes.unsafe_get buf i = Bytes.unsafe_get b (pos + i) && tail (i + 1))
  in
  w.len = len && words 0

let add_char w c =
  reserve w 1;
  Bytes.unsafe_set w.buf w.len c;
  w.len <- w.len + 1

let add_string w s =
  let n = String.length s in
  reserve w n;
  Bytes.blit_string s 0 w.buf w.len n;
  w.len <- w.len + n

(* [n >= 0]: count the digits, then write them from the last one *)
let add_digits w n =
  let digits = ref 1 and m = ref n in
  while !m >= 10 do
    incr digits;
    m := !m / 10
  done;
  reserve w !digits;
  let buf = w.buf and m = ref n in
  for i = w.len + !digits - 1 downto w.len do
    Bytes.unsafe_set buf i (Char.unsafe_chr (48 + (!m mod 10)));
    m := !m / 10
  done;
  w.len <- w.len + !digits

let add_decimal w n =
  if n >= 0 then add_digits w n
  else if n = min_int then add_string w (string_of_int n)
  else begin
    add_char w '-';
    add_digits w (-n)
  end

(* Write one int at [buf.[i]] (13 bytes must be free there); returns
   the next free index.  Zigzag first: the sign moves to bit 0, so small
   negatives stay short, and the code is unsigned, hence [lsr]. *)
let[@inline] encode buf i v =
  let z = (v lsl 1) lxor (v asr (Sys.int_size - 1)) in
  if z lsr 5 = 0 then begin
    Bytes.unsafe_set buf i (Char.unsafe_chr (48 + z));
    i + 1
  end
  else begin
    let z = ref z and i = ref i in
    while !z lsr 5 <> 0 do
      Bytes.unsafe_set buf !i (Char.unsafe_chr (80 + (!z land 31)));
      incr i;
      z := !z lsr 5
    done;
    Bytes.unsafe_set buf !i (Char.unsafe_chr (48 + !z));
    !i + 1
  end

let add_int w v =
  reserve w 13;
  w.len <- encode w.buf w.len v

(* a whole state section is one array: one bounds reservation and no
   call per int *)
let add_ints_prefix w a n =
  if n < 0 || n > Array.length a then invalid_arg "Wire.add_ints_prefix";
  reserve w (13 * (n + 1));
  let buf = w.buf in
  let i = ref (encode buf w.len n) in
  for k = 0 to n - 1 do
    i := encode buf !i (Array.unsafe_get a k)
  done;
  w.len <- !i

let add_ints w a = add_ints_prefix w a (Array.length a)

let scratch w n =
  if Array.length w.scratch < n then
    w.scratch <- Array.make (max n (2 * Array.length w.scratch)) 0;
  w.scratch

(* ---- reading ------------------------------------------------------ *)

type reader = { s : string; mutable pos : int; stop : int }

let reader s ~pos ~stop =
  if pos < 0 || stop < pos || stop > String.length s then
    invalid_arg "Wire.reader: range outside the string";
  { s; pos; stop }

let cut_short = Malformed "an int is cut short"
let too_long = Malformed "an int has too many digits"
let outside = Malformed "a byte outside the int code"
let not_canonical = Malformed "an int not in its one encoding"

(* The decode loops: tight recursions over the bytes of [r], from
   [s.[i]], that keep no [ref]s.  [z] holds the digits of the int read
   so far, [shift] where the next one goes.  [d lsr 5 = 0] is a final
   digit, [d lsr 6 = 0] otherwise a continuation, and anything else
   (a byte below ['0'] included) is outside the code.  The encoder
   writes at most 13 digits, no final digit 0 after others (it would
   be a continuation's) and no 13th digit over 7 (its bits past the
   63rd would be lost), so none of these is read: every int has
   exactly one encoding. *)
let[@inline] final z d shift =
  if shift = 0 then (d lsr 1) lxor -(d land 1)
  else if d = 0 || (shift = 60 && d > 7) then raise not_canonical
  else
    let z = z lor (d lsl shift) in
    (z lsr 1) lxor -(z land 1)

let[@inline] not_final d = raise (if d lsr 6 = 0 then too_long else outside)

let rec int_from r s i z shift =
  if i >= r.stop then raise cut_short
  else
    let d = Char.code (String.unsafe_get s i) - 48 in
    if d lsr 5 = 0 then begin
      r.pos <- i + 1;
      final z d shift
    end
    else if d lsr 6 = 0 && shift < 60 then
      int_from r s (i + 1) (z lor ((d - 32) lsl shift)) (shift + 5)
    else not_final d

let int r = int_from r r.s r.pos 0 0

let count r =
  let n = int r in
  if n < 0 || n > r.stop - r.pos then
    raise (Malformed (Printf.sprintf "a count of %d" n));
  n

(* [a.(k)] up to [a.(last - 1)], one int after the other *)
let rec ints_from r s i z shift a k last =
  if k = last then r.pos <- i
  else if i >= r.stop then raise cut_short
  else
    let d = Char.code (String.unsafe_get s i) - 48 in
    if d lsr 5 = 0 then begin
      Array.unsafe_set a k (final z d shift);
      ints_from r s (i + 1) 0 0 a (k + 1) last
    end
    else if d lsr 6 = 0 && shift < 60 then
      ints_from r s (i + 1) (z lor ((d - 32) lsl shift)) (shift + 5) a k last
    else not_final d

let read_into r a ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Array.length a then
    invalid_arg "Wire.read_into";
  ints_from r r.s r.pos 0 0 a pos (pos + len)

let at_end r = r.pos = r.stop

(* ---- hashing ------------------------------------------------------ *)

module Hash = struct
  (* [st.[0..7]]: the state; [st.[8..15]]: the word being filled, of
     which [fill] bytes are set.  Keeping the int64s in bytes lets the
     compiler keep them unboxed: feeding allocates nothing. *)
  type t = { st : Bytes.t; mutable fill : int; mutable length : int }

  let k = 0x9E3779B97F4A7C15L

  let create () =
    let st = Bytes.make 16 '\000' in
    Bytes.set_int64_le st 0 0xCBF29CE484222325L;
    { st; fill = 0; length = 0 }

  let copy t = { st = Bytes.copy t.st; fill = t.fill; length = t.length }

  let feed_bytes t b pos len =
    let st = t.st in
    let stop = pos + len in
    let i = ref pos in
    while t.fill > 0 && !i < stop do
      Bytes.unsafe_set st (8 + t.fill) (Bytes.unsafe_get b !i);
      incr i;
      t.fill <- t.fill + 1;
      if t.fill = 8 then begin
        Bytes.set_int64_le st 0
          (Int64.mul
             (Int64.logxor (Bytes.get_int64_le st 0) (Bytes.get_int64_le st 8))
             k);
        t.fill <- 0
      end
    done;
    if !i + 8 <= stop then begin
      let h = ref (Bytes.get_int64_le st 0) in
      while !i + 8 <= stop do
        h := Int64.mul (Int64.logxor !h (Bytes.get_int64_le b !i)) k;
        i := !i + 8
      done;
      Bytes.set_int64_le st 0 !h
    end;
    while !i < stop do
      Bytes.unsafe_set st (8 + t.fill) (Bytes.unsafe_get b !i);
      t.fill <- t.fill + 1;
      incr i
    done;
    t.length <- t.length + len

  let feed_bytes t b ~pos ~len =
    if pos < 0 || len < 0 || pos + len > Bytes.length b then
      invalid_arg "Wire.Hash.feed_bytes";
    feed_bytes t b pos len

  let feed t s ~pos ~len = feed_bytes t (Bytes.unsafe_of_string s) ~pos ~len

  let feed_writer t w ~pos ~len =
    if pos + len > w.len then invalid_arg "Wire.Hash.feed_writer";
    feed_bytes t w.buf ~pos ~len

  let length t = t.length

  let assign dst src =
    Bytes.blit src.st 0 dst.st 0 16;
    dst.fill <- src.fill;
    dst.length <- src.length

  (* [@inline], so that the callers below keep the int64 unboxed *)
  let[@inline] value t =
    let h = Bytes.get_int64_le t.st 0 in
    let h =
      if t.fill = 0 then h
      else
        let word =
          Int64.logand (Bytes.get_int64_le t.st 8)
            (Int64.pred (Int64.shift_left 1L (8 * t.fill)))
        in
        Int64.mul (Int64.logxor h word) k
    in
    let h = Int64.mul (Int64.logxor h (Int64.of_int t.length)) k in
    Int64.logxor h (Int64.shift_right_logical h 32)

  let hex_digits = "0123456789abcdef"

  let[@inline] hex16 h =
    let b = Bytes.create 16 in
    for i = 0 to 15 do
      Bytes.unsafe_set b i
        hex_digits.[Int64.to_int
                      (Int64.logand (Int64.shift_right_logical h (4 * (15 - i))) 15L)]
    done;
    Bytes.unsafe_to_string b

  let digest t = hex16 (value t)

  (* A link leaves its digest as the state, with nothing pending and the
     count at 0: exactly the state [of_chain] rebuilds from the digest's
     digits. *)
  let link t =
    Bytes.set_int64_le t.st 0 (value t);
    t.fill <- 0;
    t.length <- 0

  let chain t = hex16 (Bytes.get_int64_le t.st 0)

  let of_chain s =
    if String.length s <> 16 then None
    else
      match Int64.of_string_opt ("0x" ^ s) with
      | Some h when String.for_all (fun c -> String.contains hex_digits c) s ->
          let t = create () in
          Bytes.set_int64_le t.st 0 h;
          Some t
      | _ -> None

  (* The chain's top 32 bits as an int: digit [i] of [chain] is bits
     [4 * (7 - i)] up of it, for [i < 8]. *)
  let top t = Int64.to_int (Int64.shift_right_logical (Bytes.get_int64_le t.st 0) 32)

  let add_check w t ~digits =
    if digits > 8 then invalid_arg "Wire.Hash.add_check";
    let top = top t in
    for i = 0 to digits - 1 do
      add_char w hex_digits.[(top lsr (4 * (7 - i))) land 15]
    done

  let check_matches t s ~pos ~digits =
    if digits > 8 then invalid_arg "Wire.Hash.check_matches";
    let top = top t in
    let rec go i =
      i = digits || (s.[pos + i] = hex_digits.[(top lsr (4 * (7 - i))) land 15] && go (i + 1))
    in
    pos >= 0 && pos + digits <= String.length s && go 0
end
