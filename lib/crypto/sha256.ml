(* SHA-256 (FIPS 180-4 §6.2.2) with the compression function written out
   as straight-line code on unboxed 64-bit words, as in {!Sha1}.

   Every attestation request draws its challenge from the HMAC-DRBG over
   this hash, so:
   - all 64 rounds are unrolled, and the eight working variables are
     [int64] let-bindings renamed from round to round. The native
     compiler keeps a let-bound [int64] unboxed in a register while it
     only feeds [Int64] primitives, so no round allocates. Nothing goes
     through tail-call arguments, which are always boxed;
   - the message schedule is computed inside the rounds over a 16-slot
     ring of 64-bit slots in a 128-byte [Bytes];
   - a big-endian message word is one unaligned 32-bit load and a byte
     swap, masked to 32 bits on load;
   - each rotation of a Σ/σ function is a right shift of the doubled word
     [x lor (x lsl 32)], whose low 32 bits are the rotated word. Bits
     above 31 are junk, which no low bit ever sees: the Σ/σ outputs only
     feed additions, which carry upwards only. So only the new [a], the
     new [e] and each new schedule word are masked, and every value that
     is rotated, or that ch and maj combine, is one of these or a
     chaining word.
   [reset], [midstate], [resume] and [finalize_into] let {!Drbg} run HMAC
   in a context it owns, without allocating, from pad midstates kept as
   eight bare words. DESIGN.md §5 "Unboxed hash kernels" has
   the measurements and the variants that lost. *)

external get32u : Bytes.t -> int -> int32 = "%caml_bytes_get32u"
external get64u : Bytes.t -> int -> int64 = "%caml_bytes_get64u"
external set64u : Bytes.t -> int -> int64 -> unit = "%caml_bytes_set64u"
external bswap32 : int32 -> int32 = "%bswap_int32"

let digest_size = 32
let block_size = 64

type ctx = {
  mutable h0 : int; (* chaining state, each word < 2^32 *)
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  mutable h5 : int;
  mutable h6 : int;
  mutable h7 : int;
  ring : Bytes.t; (* schedule words w(i-16) .. w(i-1), slot i land 15 *)
  buf : Bytes.t; (* partial block *)
  mutable buf_len : int;
  mutable total : int; (* bytes absorbed *)
}

(* the initial chaining words; only ever read *)
let iv =
  [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f; 0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |]

let init () =
  {
    h0 = iv.(0);
    h1 = iv.(1);
    h2 = iv.(2);
    h3 = iv.(3);
    h4 = iv.(4);
    h5 = iv.(5);
    h6 = iv.(6);
    h7 = iv.(7);
    ring = Bytes.create 128;
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0;
  }

(* Every compression writes a ring slot before reading it, so a copy
   takes none of the ring's contents. It gets a ring of its own all the
   same: the original and the copy may hash in two domains at once. *)
let copy t = { t with ring = Bytes.create 128; buf = Bytes.copy t.buf }

(* After exactly one block the buffer is empty and the byte count is
   known, so the eight chaining words are the whole state. *)
let midstate t h =
  if t.total <> block_size then invalid_arg "Sha256.midstate";
  h.(0) <- t.h0;
  h.(1) <- t.h1;
  h.(2) <- t.h2;
  h.(3) <- t.h3;
  h.(4) <- t.h4;
  h.(5) <- t.h5;
  h.(6) <- t.h6;
  h.(7) <- t.h7

let resume t h =
  t.h0 <- h.(0);
  t.h1 <- h.(1);
  t.h2 <- h.(2);
  t.h3 <- h.(3);
  t.h4 <- h.(4);
  t.h5 <- h.(5);
  t.h6 <- h.(6);
  t.h7 <- h.(7);
  t.buf_len <- 0;
  t.total <- block_size

let reset t =
  resume t iv;
  t.total <- 0

let wipe t =
  Bytes.fill t.ring 0 128 '\x00';
  Bytes.fill t.buf 0 block_size '\x00';
  reset t

let[@inline] m32 x = Int64.logand x 0xFFFFFFFFL

(* x, a word below 2^32, next to itself: [shift_right_logical (double x) n]
   holds x rotated right by n in its low 32 bits *)
let[@inline] double x = Int64.(logor x (shift_left x 32))

(* Word [i] of the block at [off] (big-endian), kept in ring slot [i]. *)
let[@inline] load ring blk off i =
  let x = get32u blk (off + (4 * i)) in
  let w = m32 (Int64.of_int32 (if Sys.big_endian then x else bswap32 x)) in
  set64u ring (8 * i) w;
  w

(* Schedule word [i] >= 16, written over w(i-16) in its slot:
   σ1(w(i-2)) + w(i-7) + σ0(w(i-15)) + w(i-16). The slot arithmetic is
   spelled out so that it folds to constants once [i] is. *)
let[@inline] next ring i =
  let x2 = get64u ring (8 * ((i - 2) land 15)) in
  let x15 = get64u ring (8 * ((i - 15) land 15)) in
  let d2 = double x2 and d15 = double x15 in
  let s1 =
    Int64.(
      logxor
        (logxor (shift_right_logical d2 17) (shift_right_logical d2 19))
        (shift_right_logical x2 10))
  in
  let s0 =
    Int64.(
      logxor
        (logxor (shift_right_logical d15 7) (shift_right_logical d15 18))
        (shift_right_logical x15 3))
  in
  let w =
    m32
      Int64.(
        add
          (add s1 (get64u ring (8 * ((i - 7) land 15))))
          (add s0 (get64u ring (8 * (i land 15)))))
  in
  set64u ring (8 * (i land 15)) w;
  w

(* T1 = h + Σ1(e) + ch(e, f, g) + k + w, unmasked *)
let[@inline] t1 e f g h k w =
  let d = double e in
  Int64.(
    add
      (add h
         (logxor
            (logxor (shift_right_logical d 6) (shift_right_logical d 11))
            (shift_right_logical d 25)))
      (add (logxor g (logand e (logxor f g))) (add k w)))

(* T2 = Σ0(a) + maj(a, b, c), unmasked *)
let[@inline] t2 a b c =
  let d = double a in
  Int64.(
    add
      (logxor
         (logxor (shift_right_logical d 2) (shift_right_logical d 13))
         (shift_right_logical d 22))
      (logor (logand a b) (logand c (logor a b))))

let[@inline] sum x y = m32 (Int64.add x y)

(* Round [i] with the working variables in (a, b, c, d, e, f, g, h) binds
   the new [e] over [d] and the new [a] over [h]; round [i + 1] then reads
   the same names one place further on, (h, a, b, c, d, e, f, g), so
   eight rounds bring them back. Rounds 0-15 load their message word,
   16-63 compute it. *)
let compress t m o =
  let r = t.ring in
  let a = Int64.of_int t.h0 and b = Int64.of_int t.h1 and c = Int64.of_int t.h2 in
  let d = Int64.of_int t.h3 and e = Int64.of_int t.h4 and f = Int64.of_int t.h5 in
  let g = Int64.of_int t.h6 and h = Int64.of_int t.h7 in
  let x = t1 e f g h 0x428a2f98L (load r m o 0) in let d = sum d x and h = sum x (t2 a b c) in
  let x = t1 d e f g 0x71374491L (load r m o 1) in let c = sum c x and g = sum x (t2 h a b) in
  let x = t1 c d e f 0xb5c0fbcfL (load r m o 2) in let b = sum b x and f = sum x (t2 g h a) in
  let x = t1 b c d e 0xe9b5dba5L (load r m o 3) in let a = sum a x and e = sum x (t2 f g h) in
  let x = t1 a b c d 0x3956c25bL (load r m o 4) in let h = sum h x and d = sum x (t2 e f g) in
  let x = t1 h a b c 0x59f111f1L (load r m o 5) in let g = sum g x and c = sum x (t2 d e f) in
  let x = t1 g h a b 0x923f82a4L (load r m o 6) in let f = sum f x and b = sum x (t2 c d e) in
  let x = t1 f g h a 0xab1c5ed5L (load r m o 7) in let e = sum e x and a = sum x (t2 b c d) in
  let x = t1 e f g h 0xd807aa98L (load r m o 8) in let d = sum d x and h = sum x (t2 a b c) in
  let x = t1 d e f g 0x12835b01L (load r m o 9) in let c = sum c x and g = sum x (t2 h a b) in
  let x = t1 c d e f 0x243185beL (load r m o 10) in let b = sum b x and f = sum x (t2 g h a) in
  let x = t1 b c d e 0x550c7dc3L (load r m o 11) in let a = sum a x and e = sum x (t2 f g h) in
  let x = t1 a b c d 0x72be5d74L (load r m o 12) in let h = sum h x and d = sum x (t2 e f g) in
  let x = t1 h a b c 0x80deb1feL (load r m o 13) in let g = sum g x and c = sum x (t2 d e f) in
  let x = t1 g h a b 0x9bdc06a7L (load r m o 14) in let f = sum f x and b = sum x (t2 c d e) in
  let x = t1 f g h a 0xc19bf174L (load r m o 15) in let e = sum e x and a = sum x (t2 b c d) in
  let x = t1 e f g h 0xe49b69c1L (next r 16) in let d = sum d x and h = sum x (t2 a b c) in
  let x = t1 d e f g 0xefbe4786L (next r 17) in let c = sum c x and g = sum x (t2 h a b) in
  let x = t1 c d e f 0x0fc19dc6L (next r 18) in let b = sum b x and f = sum x (t2 g h a) in
  let x = t1 b c d e 0x240ca1ccL (next r 19) in let a = sum a x and e = sum x (t2 f g h) in
  let x = t1 a b c d 0x2de92c6fL (next r 20) in let h = sum h x and d = sum x (t2 e f g) in
  let x = t1 h a b c 0x4a7484aaL (next r 21) in let g = sum g x and c = sum x (t2 d e f) in
  let x = t1 g h a b 0x5cb0a9dcL (next r 22) in let f = sum f x and b = sum x (t2 c d e) in
  let x = t1 f g h a 0x76f988daL (next r 23) in let e = sum e x and a = sum x (t2 b c d) in
  let x = t1 e f g h 0x983e5152L (next r 24) in let d = sum d x and h = sum x (t2 a b c) in
  let x = t1 d e f g 0xa831c66dL (next r 25) in let c = sum c x and g = sum x (t2 h a b) in
  let x = t1 c d e f 0xb00327c8L (next r 26) in let b = sum b x and f = sum x (t2 g h a) in
  let x = t1 b c d e 0xbf597fc7L (next r 27) in let a = sum a x and e = sum x (t2 f g h) in
  let x = t1 a b c d 0xc6e00bf3L (next r 28) in let h = sum h x and d = sum x (t2 e f g) in
  let x = t1 h a b c 0xd5a79147L (next r 29) in let g = sum g x and c = sum x (t2 d e f) in
  let x = t1 g h a b 0x06ca6351L (next r 30) in let f = sum f x and b = sum x (t2 c d e) in
  let x = t1 f g h a 0x14292967L (next r 31) in let e = sum e x and a = sum x (t2 b c d) in
  let x = t1 e f g h 0x27b70a85L (next r 32) in let d = sum d x and h = sum x (t2 a b c) in
  let x = t1 d e f g 0x2e1b2138L (next r 33) in let c = sum c x and g = sum x (t2 h a b) in
  let x = t1 c d e f 0x4d2c6dfcL (next r 34) in let b = sum b x and f = sum x (t2 g h a) in
  let x = t1 b c d e 0x53380d13L (next r 35) in let a = sum a x and e = sum x (t2 f g h) in
  let x = t1 a b c d 0x650a7354L (next r 36) in let h = sum h x and d = sum x (t2 e f g) in
  let x = t1 h a b c 0x766a0abbL (next r 37) in let g = sum g x and c = sum x (t2 d e f) in
  let x = t1 g h a b 0x81c2c92eL (next r 38) in let f = sum f x and b = sum x (t2 c d e) in
  let x = t1 f g h a 0x92722c85L (next r 39) in let e = sum e x and a = sum x (t2 b c d) in
  let x = t1 e f g h 0xa2bfe8a1L (next r 40) in let d = sum d x and h = sum x (t2 a b c) in
  let x = t1 d e f g 0xa81a664bL (next r 41) in let c = sum c x and g = sum x (t2 h a b) in
  let x = t1 c d e f 0xc24b8b70L (next r 42) in let b = sum b x and f = sum x (t2 g h a) in
  let x = t1 b c d e 0xc76c51a3L (next r 43) in let a = sum a x and e = sum x (t2 f g h) in
  let x = t1 a b c d 0xd192e819L (next r 44) in let h = sum h x and d = sum x (t2 e f g) in
  let x = t1 h a b c 0xd6990624L (next r 45) in let g = sum g x and c = sum x (t2 d e f) in
  let x = t1 g h a b 0xf40e3585L (next r 46) in let f = sum f x and b = sum x (t2 c d e) in
  let x = t1 f g h a 0x106aa070L (next r 47) in let e = sum e x and a = sum x (t2 b c d) in
  let x = t1 e f g h 0x19a4c116L (next r 48) in let d = sum d x and h = sum x (t2 a b c) in
  let x = t1 d e f g 0x1e376c08L (next r 49) in let c = sum c x and g = sum x (t2 h a b) in
  let x = t1 c d e f 0x2748774cL (next r 50) in let b = sum b x and f = sum x (t2 g h a) in
  let x = t1 b c d e 0x34b0bcb5L (next r 51) in let a = sum a x and e = sum x (t2 f g h) in
  let x = t1 a b c d 0x391c0cb3L (next r 52) in let h = sum h x and d = sum x (t2 e f g) in
  let x = t1 h a b c 0x4ed8aa4aL (next r 53) in let g = sum g x and c = sum x (t2 d e f) in
  let x = t1 g h a b 0x5b9cca4fL (next r 54) in let f = sum f x and b = sum x (t2 c d e) in
  let x = t1 f g h a 0x682e6ff3L (next r 55) in let e = sum e x and a = sum x (t2 b c d) in
  let x = t1 e f g h 0x748f82eeL (next r 56) in let d = sum d x and h = sum x (t2 a b c) in
  let x = t1 d e f g 0x78a5636fL (next r 57) in let c = sum c x and g = sum x (t2 h a b) in
  let x = t1 c d e f 0x84c87814L (next r 58) in let b = sum b x and f = sum x (t2 g h a) in
  let x = t1 b c d e 0x8cc70208L (next r 59) in let a = sum a x and e = sum x (t2 f g h) in
  let x = t1 a b c d 0x90befffaL (next r 60) in let h = sum h x and d = sum x (t2 e f g) in
  let x = t1 h a b c 0xa4506cebL (next r 61) in let g = sum g x and c = sum x (t2 d e f) in
  let x = t1 g h a b 0xbef9a3f7L (next r 62) in let f = sum f x and b = sum x (t2 c d e) in
  let x = t1 f g h a 0xc67178f2L (next r 63) in let e = sum e x and a = sum x (t2 b c d) in
  t.h0 <- (t.h0 + Int64.to_int a) land 0xFFFFFFFF;
  t.h1 <- (t.h1 + Int64.to_int b) land 0xFFFFFFFF;
  t.h2 <- (t.h2 + Int64.to_int c) land 0xFFFFFFFF;
  t.h3 <- (t.h3 + Int64.to_int d) land 0xFFFFFFFF;
  t.h4 <- (t.h4 + Int64.to_int e) land 0xFFFFFFFF;
  t.h5 <- (t.h5 + Int64.to_int f) land 0xFFFFFFFF;
  t.h6 <- (t.h6 + Int64.to_int g) land 0xFFFFFFFF;
  t.h7 <- (t.h7 + Int64.to_int h) land 0xFFFFFFFF

let feed_bytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Sha256.feed_bytes";
  t.total <- t.total + len;
  let pos = ref pos in
  let remaining = ref len in
  (* fill a partial buffered block first *)
  if t.buf_len > 0 then begin
    let take = min (block_size - t.buf_len) !remaining in
    Bytes.blit b !pos t.buf t.buf_len take;
    t.buf_len <- t.buf_len + take;
    pos := !pos + take;
    remaining := !remaining - take;
    if t.buf_len = block_size then begin
      compress t t.buf 0;
      t.buf_len <- 0
    end
  end;
  (* full blocks straight from the caller's buffer, no copy *)
  while !remaining >= block_size do
    compress t b !pos;
    pos := !pos + block_size;
    remaining := !remaining - block_size
  done;
  if !remaining > 0 then begin
    Bytes.blit b !pos t.buf t.buf_len !remaining;
    t.buf_len <- t.buf_len + !remaining
  end

let feed t s =
  (* [feed_bytes] never mutates its input, so viewing the immutable string
     as bytes is safe and saves a copy of every full block *)
  feed_bytes t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finalize_into t out =
  if Bytes.length out < digest_size then invalid_arg "Sha256.finalize_into";
  (* append 0x80, pad with zeros to 56 mod 64, then the 64-bit bit length *)
  Bytes.set t.buf t.buf_len '\x80';
  t.buf_len <- t.buf_len + 1;
  if t.buf_len > block_size - 8 then begin
    Bytes.fill t.buf t.buf_len (block_size - t.buf_len) '\x00';
    compress t t.buf 0;
    t.buf_len <- 0
  end;
  Bytes.fill t.buf t.buf_len (block_size - 8 - t.buf_len) '\x00';
  Bytes.set_int64_be t.buf (block_size - 8) (Int64.mul (Int64.of_int t.total) 8L);
  compress t t.buf 0;
  Bytes.set_int32_be out 0 (Int32.of_int t.h0);
  Bytes.set_int32_be out 4 (Int32.of_int t.h1);
  Bytes.set_int32_be out 8 (Int32.of_int t.h2);
  Bytes.set_int32_be out 12 (Int32.of_int t.h3);
  Bytes.set_int32_be out 16 (Int32.of_int t.h4);
  Bytes.set_int32_be out 20 (Int32.of_int t.h5);
  Bytes.set_int32_be out 24 (Int32.of_int t.h6);
  Bytes.set_int32_be out 28 (Int32.of_int t.h7)

let finalize t =
  let out = Bytes.create digest_size in
  finalize_into t out;
  Bytes.unsafe_to_string out

let digest s =
  let t = init () in
  feed t s;
  finalize t

let digest_bytes b =
  let t = init () in
  feed_bytes t b ~pos:0 ~len:(Bytes.length b);
  finalize t
