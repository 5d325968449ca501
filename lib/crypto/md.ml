(* The Merkle–Damgård framing of FIPS 180-4, once for SHA-1 and SHA-256.
   A context carries its hash's compression function and initial
   chaining words; the chaining words themselves are eight [int] fields,
   of which SHA-1 uses five. Everything here that touches them is
   written out word by word, with SHA-256's three extra words behind one
   test ([wide]), so that resuming a midstate, as every DRBG HMAC does,
   runs no loop. DESIGN.md §5 "Unboxed hash kernels" has the kernels and
   their measurements. *)

type ctx = {
  compress : ctx -> Bytes.t -> int -> unit;
  iv : int array;
  mutable h0 : int;
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  mutable h5 : int;
  mutable h6 : int;
  mutable h7 : int;
  ring : Bytes.t;
  buf : Bytes.t;
  mutable buf_len : int;
  mutable total : int;
}

let block_size = 64

(* SHA-256 has eight chaining words, SHA-1 five *)
let[@inline] wide t = Array.length t.iv = 8

let resume t h =
  t.h0 <- h.(0);
  t.h1 <- h.(1);
  t.h2 <- h.(2);
  t.h3 <- h.(3);
  t.h4 <- h.(4);
  if wide t then begin
    t.h5 <- h.(5);
    t.h6 <- h.(6);
    t.h7 <- h.(7)
  end;
  t.buf_len <- 0;
  t.total <- block_size

let reset t =
  resume t t.iv;
  t.total <- 0

let create ~iv compress =
  let t =
    {
      compress;
      iv;
      h0 = 0;
      h1 = 0;
      h2 = 0;
      h3 = 0;
      h4 = 0;
      h5 = 0;
      h6 = 0;
      h7 = 0;
      ring = Bytes.create 128;
      buf = Bytes.create block_size;
      buf_len = 0;
      total = 0;
    }
  in
  reset t;
  t

(* Every compression writes a ring slot before reading it, so a copy
   takes none of the ring's contents. It gets a ring of its own all the
   same: the original and the copy may hash in two domains at once. *)
let copy t = { t with ring = Bytes.create 128; buf = Bytes.copy t.buf }

let wipe t =
  Bytes.fill t.ring 0 128 '\x00';
  Bytes.fill t.buf 0 block_size '\x00';
  reset t

(* After exactly one block the buffer is empty and the byte count is
   known, so the chaining words are the whole state. *)
let midstate t h =
  if t.total <> block_size then invalid_arg "Md.midstate";
  h.(0) <- t.h0;
  h.(1) <- t.h1;
  h.(2) <- t.h2;
  h.(3) <- t.h3;
  h.(4) <- t.h4;
  if wide t then begin
    h.(5) <- t.h5;
    h.(6) <- t.h6;
    h.(7) <- t.h7
  end

let feed_bytes t b ~pos ~len =
  if pos < 0 || len < 0 || pos + len > Bytes.length b then invalid_arg "Md.feed_bytes";
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
      t.compress t t.buf 0;
      t.buf_len <- 0
    end
  end;
  (* full blocks straight from the caller's buffer, no copy *)
  while !remaining >= block_size do
    t.compress t b !pos;
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
  if Bytes.length out < 4 * Array.length t.iv then invalid_arg "Md.finalize_into";
  (* append 0x80, pad with zeros to 56 mod 64, then the 64-bit bit length *)
  Bytes.set t.buf t.buf_len '\x80';
  t.buf_len <- t.buf_len + 1;
  if t.buf_len > block_size - 8 then begin
    Bytes.fill t.buf t.buf_len (block_size - t.buf_len) '\x00';
    t.compress t t.buf 0;
    t.buf_len <- 0
  end;
  Bytes.fill t.buf t.buf_len (block_size - 8 - t.buf_len) '\x00';
  Bytes.set_int64_be t.buf (block_size - 8) (Int64.mul (Int64.of_int t.total) 8L);
  t.compress t t.buf 0;
  Bytes.set_int32_be out 0 (Int32.of_int t.h0);
  Bytes.set_int32_be out 4 (Int32.of_int t.h1);
  Bytes.set_int32_be out 8 (Int32.of_int t.h2);
  Bytes.set_int32_be out 12 (Int32.of_int t.h3);
  Bytes.set_int32_be out 16 (Int32.of_int t.h4);
  if wide t then begin
    Bytes.set_int32_be out 20 (Int32.of_int t.h5);
    Bytes.set_int32_be out 24 (Int32.of_int t.h6);
    Bytes.set_int32_be out 28 (Int32.of_int t.h7)
  end

let finalize t =
  let out = Bytes.create (4 * Array.length t.iv) in
  finalize_into t out;
  Bytes.unsafe_to_string out

let digest init s =
  let t = init () in
  feed t s;
  finalize t
