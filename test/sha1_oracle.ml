(* Reference SHA-1 for the kernel tests.

   The kernel [Ra_crypto.Sha1] used before its compression function
   became straight-line code, kept verbatim: state in an [int array], an
   80-word schedule precomputed per block, and the working variables
   passed through four tail-recursive quarter functions. [test_hash.ml]
   holds the current kernel to this one digest for digest, over random
   lengths, splits, unaligned [feed_bytes] windows and [copy] forks. *)

let digest_size = 20
let block_size = 64
let mask32 = 0xFFFFFFFF

type ctx = {
  state : int array; (* h0..h4, each < 2^32 *)
  w : int array; (* preallocated 80-word message schedule *)
  buf : Bytes.t; (* partial block *)
  mutable buf_len : int;
  mutable total : int64; (* bytes absorbed *)
}

let init () =
  {
    state = [| 0x67452301; 0xEFCDAB89; 0x98BADCFE; 0x10325476; 0xC3D2E1F0 |];
    w = Array.make 80 0;
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0L;
  }

let copy t =
  {
    state = Array.copy t.state;
    w = Array.make 80 0;
    buf = Bytes.copy t.buf;
    buf_len = t.buf_len;
    total = t.total;
  }

let[@inline] rotl32 x n = ((x lsl n) lor (x lsr (32 - n))) land mask32

(* The working variables rotate through tail-call arguments, which the
   compiler keeps in registers — refs would be heap loads/stores on every
   one of the 80 rounds. Top-level (not nested in [compress]) so no closure
   is allocated per block. *)
let rec q4 w state i a b c d e =
  if i = 80 then begin
    state.(0) <- (state.(0) + a) land mask32;
    state.(1) <- (state.(1) + b) land mask32;
    state.(2) <- (state.(2) + c) land mask32;
    state.(3) <- (state.(3) + d) land mask32;
    state.(4) <- (state.(4) + e) land mask32
  end
  else
    let f = b lxor c lxor d in
    let temp = (rotl32 a 5 + f + e + 0xCA62C1D6 + Array.unsafe_get w i) land mask32 in
    q4 w state (i + 1) temp a (rotl32 b 30) c d

let rec q3 w state i a b c d e =
  if i = 60 then q4 w state i a b c d e
  else
    let f = (b land c) lor (b land d) lor (c land d) in
    let temp = (rotl32 a 5 + f + e + 0x8F1BBCDC + Array.unsafe_get w i) land mask32 in
    q3 w state (i + 1) temp a (rotl32 b 30) c d

let rec q2 w state i a b c d e =
  if i = 40 then q3 w state i a b c d e
  else
    let f = b lxor c lxor d in
    let temp = (rotl32 a 5 + f + e + 0x6ED9EBA1 + Array.unsafe_get w i) land mask32 in
    q2 w state (i + 1) temp a (rotl32 b 30) c d

let rec q1 w state i a b c d e =
  if i = 20 then q2 w state i a b c d e
  else
    (* (b lxor mask32) = lnot b on clean 32-bit words, one op cheaper *)
    let f = (b land c) lor ((b lxor mask32) land d) in
    let temp = (rotl32 a 5 + f + e + 0x5A827999 + Array.unsafe_get w i) land mask32 in
    q1 w state (i + 1) temp a (rotl32 b 30) c d

let compress t block off =
  let w = t.w in
  for i = 0 to 15 do
    (* four unchecked byte loads: big-endian word without boxing an Int32 *)
    let base = off + (4 * i) in
    Array.unsafe_set w i
      ((Char.code (Bytes.unsafe_get block base) lsl 24)
      lor (Char.code (Bytes.unsafe_get block (base + 1)) lsl 16)
      lor (Char.code (Bytes.unsafe_get block (base + 2)) lsl 8)
      lor Char.code (Bytes.unsafe_get block (base + 3)))
  done;
  for i = 16 to 79 do
    let x =
      Array.unsafe_get w (i - 3)
      lxor Array.unsafe_get w (i - 8)
      lxor Array.unsafe_get w (i - 14)
      lxor Array.unsafe_get w (i - 16)
    in
    Array.unsafe_set w i (((x lsl 1) lor (x lsr 31)) land mask32)
  done;
  let state = t.state in
  q1 w state 0 state.(0) state.(1) state.(2) state.(3) state.(4)

let feed_bytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Sha1.feed_bytes";
  t.total <- Int64.add t.total (Int64.of_int len);
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

let finalize t =
  let bits = Int64.mul t.total 8L in
  (* append 0x80, pad with zeros to 56 mod 64, then 64-bit length *)
  Bytes.set t.buf t.buf_len '\x80';
  t.buf_len <- t.buf_len + 1;
  if t.buf_len > block_size - 8 then begin
    Bytes.fill t.buf t.buf_len (block_size - t.buf_len) '\x00';
    compress t t.buf 0;
    t.buf_len <- 0
  end;
  Bytes.fill t.buf t.buf_len (block_size - 8 - t.buf_len) '\x00';
  Bytes.set_int64_be t.buf (block_size - 8) bits;
  compress t t.buf 0;
  let out = Bytes.create digest_size in
  for i = 0 to 4 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int t.state.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let t = init () in
  feed t s;
  finalize t

let digest_bytes b =
  let t = init () in
  feed_bytes t b ~pos:0 ~len:(Bytes.length b);
  finalize t
