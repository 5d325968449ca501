(* Reference SHA-256: the kernel [Ra_crypto.Sha256] used before its
   compression function became straight-line code, kept verbatim: state
   in an [int array], a 64-word schedule precomputed per block, and the
   working variables passed through one tail-recursive round function.
   [test_hash.ml] holds the current kernel to this one digest for
   digest, over random lengths, splits, unaligned [feed_bytes] windows
   and [copy] forks; [drbg_oracle.ml] builds the reference HMAC-DRBG on
   it; and the [hotpath] bench times it against the library kernel in
   paired windows as its [sha256-4KiB-seed] row. *)

let digest_size = 32
let block_size = 64
let mask32 = 0xFFFFFFFF

let k =
  [| 0x428a2f98; 0x71374491; 0xb5c0fbcf; 0xe9b5dba5; 0x3956c25b;
     0x59f111f1; 0x923f82a4; 0xab1c5ed5; 0xd807aa98; 0x12835b01;
     0x243185be; 0x550c7dc3; 0x72be5d74; 0x80deb1fe; 0x9bdc06a7;
     0xc19bf174; 0xe49b69c1; 0xefbe4786; 0x0fc19dc6; 0x240ca1cc;
     0x2de92c6f; 0x4a7484aa; 0x5cb0a9dc; 0x76f988da; 0x983e5152;
     0xa831c66d; 0xb00327c8; 0xbf597fc7; 0xc6e00bf3; 0xd5a79147;
     0x06ca6351; 0x14292967; 0x27b70a85; 0x2e1b2138; 0x4d2c6dfc;
     0x53380d13; 0x650a7354; 0x766a0abb; 0x81c2c92e; 0x92722c85;
     0xa2bfe8a1; 0xa81a664b; 0xc24b8b70; 0xc76c51a3; 0xd192e819;
     0xd6990624; 0xf40e3585; 0x106aa070; 0x19a4c116; 0x1e376c08;
     0x2748774c; 0x34b0bcb5; 0x391c0cb3; 0x4ed8aa4a; 0x5b9cca4f;
     0x682e6ff3; 0x748f82ee; 0x78a5636f; 0x84c87814; 0x8cc70208;
     0x90befffa; 0xa4506ceb; 0xbef9a3f7; 0xc67178f2 |]

type ctx = {
  state : int array;
  w : int array; (* preallocated 64-word schedule *)
  buf : Bytes.t;
  mutable buf_len : int;
  mutable total : int64;
}

let init () =
  {
    state =
      [| 0x6a09e667; 0xbb67ae85; 0x3c6ef372; 0xa54ff53a; 0x510e527f;
         0x9b05688c; 0x1f83d9ab; 0x5be0cd19 |];
    w = Array.make 64 0;
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0L;
  }

let[@inline] rotr32 x n = ((x lsr n) lor (x lsl (32 - n))) land mask32

(* Working variables rotate through tail-call arguments (registers), not
   refs (heap traffic); top-level so no closure is allocated per block —
   see the same structure in {!Sha1}. *)
let rec round w state i a b c d e f g h =
  if i = 64 then begin
    state.(0) <- (state.(0) + a) land mask32;
    state.(1) <- (state.(1) + b) land mask32;
    state.(2) <- (state.(2) + c) land mask32;
    state.(3) <- (state.(3) + d) land mask32;
    state.(4) <- (state.(4) + e) land mask32;
    state.(5) <- (state.(5) + f) land mask32;
    state.(6) <- (state.(6) + g) land mask32;
    state.(7) <- (state.(7) + h) land mask32
  end
  else
    let s1 = rotr32 e 6 lxor rotr32 e 11 lxor rotr32 e 25 in
    let ch = (e land f) lxor ((e lxor mask32) land g) in
    let temp1 =
      (h + s1 + ch + Array.unsafe_get k i + Array.unsafe_get w i) land mask32
    in
    let s0 = rotr32 a 2 lxor rotr32 a 13 lxor rotr32 a 22 in
    let maj = (a land b) lxor (a land c) lxor (b land c) in
    let temp2 = (s0 + maj) land mask32 in
    round w state (i + 1)
      ((temp1 + temp2) land mask32)
      a b c
      ((d + temp1) land mask32)
      e f g

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
  for i = 16 to 63 do
    let x15 = Array.unsafe_get w (i - 15) and x2 = Array.unsafe_get w (i - 2) in
    let s0 = rotr32 x15 7 lxor rotr32 x15 18 lxor (x15 lsr 3) in
    let s1 = rotr32 x2 17 lxor rotr32 x2 19 lxor (x2 lsr 10) in
    Array.unsafe_set w i
      ((Array.unsafe_get w (i - 16) + s0 + Array.unsafe_get w (i - 7) + s1) land mask32)
  done;
  let state = t.state in
  round w state 0 state.(0) state.(1) state.(2) state.(3) state.(4) state.(5)
    state.(6) state.(7)

let feed_bytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then
    invalid_arg "Sha256.feed_bytes";
  t.total <- Int64.add t.total (Int64.of_int len);
  let pos = ref pos in
  let remaining = ref len in
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
  feed_bytes t (Bytes.unsafe_of_string s) ~pos:0 ~len:(String.length s)

let finalize t =
  let bits = Int64.mul t.total 8L in
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
  for i = 0 to 7 do
    Bytes.set_int32_be out (4 * i) (Int32.of_int t.state.(i))
  done;
  Bytes.unsafe_to_string out

let digest s =
  let t = init () in
  feed t s;
  finalize t
