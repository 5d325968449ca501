(* Reference SplitMix64: the generator [Ra_crypto.Prng] had before its
   state became an unboxed 8-byte buffer, kept verbatim. The state is a
   mutable boxed [int64] field, so every draw allocates a fresh [int64]
   and [bytes] boxes one per byte. The crypto/rand tests hold [Prng] to
   it draw for draw, and the [hotpath] bench times it as its
   [prng-1KiB-seed] row. *)

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

let bytes t n =
  let b = Bytes.create n in
  for i = 0 to n - 1 do
    Bytes.unsafe_set b i (Char.unsafe_chr (Int64.to_int (next_int64 t) land 0xFF))
  done;
  Bytes.unsafe_to_string b
