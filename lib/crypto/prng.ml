type t = { mutable state : int64 }

let create seed = { state = seed }

let gamma = 0x9E3779B97F4A7C15L

let mix z =
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let next_int64 t =
  t.state <- Int64.add t.state gamma;
  mix t.state

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
