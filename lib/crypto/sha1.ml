(* SHA-1 (FIPS 180-4 §6.1.2): its initial chaining words and its
   compression function, written out as straight-line code on unboxed
   64-bit words. The framing around it (partial block, padding, digest)
   is {!Md}'s.

   [compress] is nearly all of the memory MAC's host time, so:
   - all 80 rounds are unrolled, and the five working variables are
     [int64] let-bindings renamed from round to round. The native
     compiler keeps a let-bound [int64] unboxed in a register while it
     only feeds [Int64] primitives, so no round allocates. Nothing goes
     through tail-call arguments, which are always boxed;
   - the message schedule is computed inside the rounds over a 16-slot
     ring of 64-bit slots in a 128-byte [Bytes];
   - a big-endian message word is one unaligned 32-bit load and a byte
     swap;
   - only the round sum is masked to 32 bits. Every other word may carry
     junk above bit 31, which no low bit ever sees: additions carry
     upwards only, the round functions are bitwise, and the only values
     rotated are [a] (by 5) and [b] (by 30), each of which is a masked
     round sum or a chaining word. The schedule's rotate-by-one takes
     bit 31 down with an explicit [land 1].
   DESIGN.md §5 "Unboxed hash kernels" has the measurements and the
   variants that lost. *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let digest_size = 20
let iv = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |]

let[@inline] rotl x n = Int64.(logor (shift_left x n) (shift_right_logical x (32 - n)))

(* Word [i] of the block at [off] (big-endian), kept in ring slot [i]. *)
let[@inline] load ring blk off i =
  let x = get32u blk (off + (4 * i)) in
  let w = Int64.of_int32 (if Sys.big_endian then x else bswap32 x) in
  set64u ring (8 * i) w;
  w

(* Schedule word [i] >= 16, written over w(i-16) in its slot. The slot
   arithmetic is spelled out so that it folds to constants once [i] is. *)
let[@inline] next ring i =
  let x =
    Int64.(
      logxor
        (logxor (get64u ring (8 * ((i - 3) land 15))) (get64u ring (8 * ((i - 8) land 15))))
        (logxor (get64u ring (8 * ((i - 14) land 15))) (get64u ring (8 * (i land 15)))))
  in
  let w = Int64.(logor (shift_left x 1) (logand (shift_right_logical x 31) 1L)) in
  set64u ring (8 * (i land 15)) w;
  w

(* A round's new [a]: rotl a 5 + f b c d + e + k + w, masked, the round's
   only mask. [r1] uses ch, [r2] and [r4] parity, [r3] maj. *)
let[@inline] sum a f e k w =
  Int64.(logand (add (add (rotl a 5) f) (add (add e k) w)) 0xFFFFFFFFL)

let[@inline] r1 a b c d e w = sum a Int64.(logxor d (logand b (logxor c d))) e 0x5A827999L w
let[@inline] r2 a b c d e w = sum a Int64.(logxor b (logxor c d)) e 0x6ED9EBA1L w

let[@inline] r3 a b c d e w =
  sum a Int64.(logor (logand b c) (logand d (logor b c))) e 0x8F1BBCDCL w

let[@inline] r4 a b c d e w = sum a Int64.(logxor b (logxor c d)) e 0xCA62C1D6L w

(* Round [i] with the working variables in (a, b, c, d, e) binds the new
   [a] over [e] and rotates [b]; round [i + 1] then reads the same names
   one place further on, (e, a, b, c, d), so five rounds bring them back.
   Rounds 0-15 load their message word, 16-79 compute it. *)
let compress (t : Md.ctx) m o =
  let r = t.ring in
  let a = Int64.of_int t.h0 and b = Int64.of_int t.h1 and c = Int64.of_int t.h2 in
  let d = Int64.of_int t.h3 and e = Int64.of_int t.h4 in
  (* rounds 0-19: ch *)
  let e = r1 a b c d e (load r m o 0) in let b = rotl b 30 in
  let d = r1 e a b c d (load r m o 1) in let a = rotl a 30 in
  let c = r1 d e a b c (load r m o 2) in let e = rotl e 30 in
  let b = r1 c d e a b (load r m o 3) in let d = rotl d 30 in
  let a = r1 b c d e a (load r m o 4) in let c = rotl c 30 in
  let e = r1 a b c d e (load r m o 5) in let b = rotl b 30 in
  let d = r1 e a b c d (load r m o 6) in let a = rotl a 30 in
  let c = r1 d e a b c (load r m o 7) in let e = rotl e 30 in
  let b = r1 c d e a b (load r m o 8) in let d = rotl d 30 in
  let a = r1 b c d e a (load r m o 9) in let c = rotl c 30 in
  let e = r1 a b c d e (load r m o 10) in let b = rotl b 30 in
  let d = r1 e a b c d (load r m o 11) in let a = rotl a 30 in
  let c = r1 d e a b c (load r m o 12) in let e = rotl e 30 in
  let b = r1 c d e a b (load r m o 13) in let d = rotl d 30 in
  let a = r1 b c d e a (load r m o 14) in let c = rotl c 30 in
  let e = r1 a b c d e (load r m o 15) in let b = rotl b 30 in
  let d = r1 e a b c d (next r 16) in let a = rotl a 30 in
  let c = r1 d e a b c (next r 17) in let e = rotl e 30 in
  let b = r1 c d e a b (next r 18) in let d = rotl d 30 in
  let a = r1 b c d e a (next r 19) in let c = rotl c 30 in
  (* rounds 20-39: parity *)
  let e = r2 a b c d e (next r 20) in let b = rotl b 30 in
  let d = r2 e a b c d (next r 21) in let a = rotl a 30 in
  let c = r2 d e a b c (next r 22) in let e = rotl e 30 in
  let b = r2 c d e a b (next r 23) in let d = rotl d 30 in
  let a = r2 b c d e a (next r 24) in let c = rotl c 30 in
  let e = r2 a b c d e (next r 25) in let b = rotl b 30 in
  let d = r2 e a b c d (next r 26) in let a = rotl a 30 in
  let c = r2 d e a b c (next r 27) in let e = rotl e 30 in
  let b = r2 c d e a b (next r 28) in let d = rotl d 30 in
  let a = r2 b c d e a (next r 29) in let c = rotl c 30 in
  let e = r2 a b c d e (next r 30) in let b = rotl b 30 in
  let d = r2 e a b c d (next r 31) in let a = rotl a 30 in
  let c = r2 d e a b c (next r 32) in let e = rotl e 30 in
  let b = r2 c d e a b (next r 33) in let d = rotl d 30 in
  let a = r2 b c d e a (next r 34) in let c = rotl c 30 in
  let e = r2 a b c d e (next r 35) in let b = rotl b 30 in
  let d = r2 e a b c d (next r 36) in let a = rotl a 30 in
  let c = r2 d e a b c (next r 37) in let e = rotl e 30 in
  let b = r2 c d e a b (next r 38) in let d = rotl d 30 in
  let a = r2 b c d e a (next r 39) in let c = rotl c 30 in
  (* rounds 40-59: maj *)
  let e = r3 a b c d e (next r 40) in let b = rotl b 30 in
  let d = r3 e a b c d (next r 41) in let a = rotl a 30 in
  let c = r3 d e a b c (next r 42) in let e = rotl e 30 in
  let b = r3 c d e a b (next r 43) in let d = rotl d 30 in
  let a = r3 b c d e a (next r 44) in let c = rotl c 30 in
  let e = r3 a b c d e (next r 45) in let b = rotl b 30 in
  let d = r3 e a b c d (next r 46) in let a = rotl a 30 in
  let c = r3 d e a b c (next r 47) in let e = rotl e 30 in
  let b = r3 c d e a b (next r 48) in let d = rotl d 30 in
  let a = r3 b c d e a (next r 49) in let c = rotl c 30 in
  let e = r3 a b c d e (next r 50) in let b = rotl b 30 in
  let d = r3 e a b c d (next r 51) in let a = rotl a 30 in
  let c = r3 d e a b c (next r 52) in let e = rotl e 30 in
  let b = r3 c d e a b (next r 53) in let d = rotl d 30 in
  let a = r3 b c d e a (next r 54) in let c = rotl c 30 in
  let e = r3 a b c d e (next r 55) in let b = rotl b 30 in
  let d = r3 e a b c d (next r 56) in let a = rotl a 30 in
  let c = r3 d e a b c (next r 57) in let e = rotl e 30 in
  let b = r3 c d e a b (next r 58) in let d = rotl d 30 in
  let a = r3 b c d e a (next r 59) in let c = rotl c 30 in
  (* rounds 60-79: parity *)
  let e = r4 a b c d e (next r 60) in let b = rotl b 30 in
  let d = r4 e a b c d (next r 61) in let a = rotl a 30 in
  let c = r4 d e a b c (next r 62) in let e = rotl e 30 in
  let b = r4 c d e a b (next r 63) in let d = rotl d 30 in
  let a = r4 b c d e a (next r 64) in let c = rotl c 30 in
  let e = r4 a b c d e (next r 65) in let b = rotl b 30 in
  let d = r4 e a b c d (next r 66) in let a = rotl a 30 in
  let c = r4 d e a b c (next r 67) in let e = rotl e 30 in
  let b = r4 c d e a b (next r 68) in let d = rotl d 30 in
  let a = r4 b c d e a (next r 69) in let c = rotl c 30 in
  let e = r4 a b c d e (next r 70) in let b = rotl b 30 in
  let d = r4 e a b c d (next r 71) in let a = rotl a 30 in
  let c = r4 d e a b c (next r 72) in let e = rotl e 30 in
  let b = r4 c d e a b (next r 73) in let d = rotl d 30 in
  let a = r4 b c d e a (next r 74) in let c = rotl c 30 in
  let e = r4 a b c d e (next r 75) in let b = rotl b 30 in
  let d = r4 e a b c d (next r 76) in let a = rotl a 30 in
  let c = r4 d e a b c (next r 77) in let e = rotl e 30 in
  let b = r4 c d e a b (next r 78) in let d = rotl d 30 in
  let a = r4 b c d e a (next r 79) in let c = rotl c 30 in
  t.h0 <- (t.h0 + Int64.to_int a) land 0xFFFFFFFF;
  t.h1 <- (t.h1 + Int64.to_int b) land 0xFFFFFFFF;
  t.h2 <- (t.h2 + Int64.to_int c) land 0xFFFFFFFF;
  t.h3 <- (t.h3 + Int64.to_int d) land 0xFFFFFFFF;
  t.h4 <- (t.h4 + Int64.to_int e) land 0xFFFFFFFF

let init () = Md.create ~iv compress
let feed = Md.feed
let finalize = Md.finalize
let digest s = Md.digest init s
