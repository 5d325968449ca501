(* The state lives in an 8-byte buffer read and written with
   [get_int64_le]/[set_int64_le], and [mix] and [next_int64] are inlined
   into every caller, so the int64 arithmetic of a draw stays unboxed: a
   [bytes] fill allocates its result and nothing per byte. *)
type t = Bytes.t

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let gamma = 0x9E3779B97F4A7C15L

let[@inline] mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let[@inline] next_int64 t =
  let s = Int64.add (Bytes.get_int64_le t 0) gamma in
  Bytes.set_int64_le t 0 s;
  mix s

let int t bound =
  if bound <= 0 then invalid_arg "Prng.int: bound must be positive";
  let v = Int64.to_int (Int64.shift_right_logical (next_int64 t) 2) in
  v mod bound

let bool t = Int64.logand (next_int64 t) 1L = 1L

let float t bound =
  let v = Int64.to_float (Int64.shift_right_logical (next_int64 t) 11) in
  bound *. (v /. 9007199254740992.0 (* 2^53 *))

(* byte i is the low byte of the i-th draw *)
let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Int64.to_int (next_int64 t) land 0xFF))
  done;
  Bytes.unsafe_to_string b

let split t = create (next_int64 t)
