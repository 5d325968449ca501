(* Reference SHA-1 and HMAC-SHA1: the seed repository's kernel, kept
   verbatim. Boxed [Int32] arithmetic, a fresh 80-word [Int32] schedule
   per block, byte-at-a-time big-endian loads, and an HMAC that derives
   and concatenates both pads on every message. It shares no code with
   [Ra_crypto.Sha1] or [Ra_crypto.Hmac]: [test_hash.ml] holds the library
   kernel to it digest for digest, [test_hmac.ml] holds HMAC-SHA1 to its
   [hmac], and the [hotpath] bench times both as its [sha1-4KiB-seed] and
   [hmac-sha1-64B-seed] rows. *)

let digest_size = 20
let block_size = 64

type ctx = {
  state : int32 array;
  buf : Bytes.t;
  mutable buf_len : int;
  mutable total : int64;
}

let init () =
  {
    state =
      [| 0x67452301l; 0xEFCDAB89l; 0x98BADCFEl; 0x10325476l; 0xC3D2E1F0l |];
    buf = Bytes.create block_size;
    buf_len = 0;
    total = 0L;
  }

let rotl32 x n =
  Int32.logor (Int32.shift_left x n) (Int32.shift_right_logical x (32 - n))

let compress state block off =
  let w = Array.make 80 0l in
  for t = 0 to 15 do
    let base = off + (4 * t) in
    let b i = Int32.of_int (Char.code (Bytes.get block (base + i))) in
    w.(t) <-
      Int32.logor
        (Int32.shift_left (b 0) 24)
        (Int32.logor
           (Int32.shift_left (b 1) 16)
           (Int32.logor (Int32.shift_left (b 2) 8) (b 3)))
  done;
  for t = 16 to 79 do
    w.(t) <-
      rotl32
        (Int32.logxor
           (Int32.logxor w.(t - 3) w.(t - 8))
           (Int32.logxor w.(t - 14) w.(t - 16)))
        1
  done;
  let a = ref state.(0)
  and b = ref state.(1)
  and c = ref state.(2)
  and d = ref state.(3)
  and e = ref state.(4) in
  for t = 0 to 79 do
    let f, k =
      if t < 20 then
        ( Int32.logor (Int32.logand !b !c) (Int32.logand (Int32.lognot !b) !d),
          0x5A827999l )
      else if t < 40 then (Int32.logxor !b (Int32.logxor !c !d), 0x6ED9EBA1l)
      else if t < 60 then
        ( Int32.logor
            (Int32.logand !b !c)
            (Int32.logor (Int32.logand !b !d) (Int32.logand !c !d)),
          0x8F1BBCDCl )
      else (Int32.logxor !b (Int32.logxor !c !d), 0xCA62C1D6l)
    in
    let temp =
      Int32.add (rotl32 !a 5) (Int32.add f (Int32.add !e (Int32.add k w.(t))))
    in
    e := !d;
    d := !c;
    c := rotl32 !b 30;
    b := !a;
    a := temp
  done;
  state.(0) <- Int32.add state.(0) !a;
  state.(1) <- Int32.add state.(1) !b;
  state.(2) <- Int32.add state.(2) !c;
  state.(3) <- Int32.add state.(3) !d;
  state.(4) <- Int32.add state.(4) !e

let feed t s =
  let len = String.length s in
  t.total <- Int64.add t.total (Int64.of_int len);
  let pos = ref 0 in
  if t.buf_len > 0 then begin
    let take = min (block_size - t.buf_len) len in
    Bytes.blit_string s 0 t.buf t.buf_len take;
    t.buf_len <- t.buf_len + take;
    pos := take;
    if t.buf_len = block_size then begin
      compress t.state t.buf 0;
      t.buf_len <- 0
    end
  end;
  while len - !pos >= block_size do
    Bytes.blit_string s !pos t.buf 0 block_size;
    compress t.state t.buf 0;
    pos := !pos + block_size
  done;
  let rest = len - !pos in
  if rest > 0 then begin
    Bytes.blit_string s !pos t.buf t.buf_len rest;
    t.buf_len <- t.buf_len + rest
  end

let finalize t =
  let bits = Int64.mul t.total 8L in
  Bytes.set t.buf t.buf_len '\x80';
  t.buf_len <- t.buf_len + 1;
  if t.buf_len > block_size - 8 then begin
    Bytes.fill t.buf t.buf_len (block_size - t.buf_len) '\x00';
    compress t.state t.buf 0;
    t.buf_len <- 0
  end;
  Bytes.fill t.buf t.buf_len (block_size - 8 - t.buf_len) '\x00';
  for i = 0 to 7 do
    Bytes.set t.buf
      (block_size - 1 - i)
      (Char.chr
         (Int64.to_int (Int64.logand (Int64.shift_right_logical bits (8 * i)) 0xFFL)))
  done;
  compress t.state t.buf 0;
  String.init digest_size (fun i ->
      let word = t.state.(i / 4) in
      let shift = 8 * (3 - (i mod 4)) in
      Char.chr (Int32.to_int (Int32.logand (Int32.shift_right_logical word shift) 0xFFl)))

let digest s =
  let t = init () in
  feed t s;
  finalize t

(* the seed's Hmac.mac: pads re-derived and concatenated per message *)
let hmac ~key msg =
  let key = if String.length key > block_size then digest key else key in
  let key = key ^ String.make (block_size - String.length key) '\x00' in
  let ipad = Ra_crypto.Hexutil.xor key (String.make block_size '\x36') in
  let opad = Ra_crypto.Hexutil.xor key (String.make block_size '\x5c') in
  digest (opad ^ digest (ipad ^ msg))
