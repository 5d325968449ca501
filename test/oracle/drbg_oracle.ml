(* Reference HMAC-DRBG: [Ra_crypto.Drbg] as it was before it computed
   its HMACs in place, step for step: K and V are strings, and every
   SP 800-90A step is one fresh HMAC. The HMAC is the RFC 2104 textbook
   construction over [Sha256_oracle], deriving both pads on every call,
   so the reference shares no code with the kernel, the midstates or the
   buffers under test. The crypto/rand tests hold [Drbg] to it,
   crypto/hmac holds HMAC-SHA256 to its [hmac], and the [hotpath] bench
   checks its first draws before timing [drbg-16B]. *)

let hmac ~key msg =
  let block = Sha256_oracle.block_size in
  let key = if String.length key > block then Sha256_oracle.digest key else key in
  let key = key ^ String.make (block - String.length key) '\x00' in
  let pad c = String.map (fun k -> Char.chr (Char.code k lxor c)) key in
  Sha256_oracle.digest (pad 0x5c ^ Sha256_oracle.digest (pad 0x36 ^ msg))

type t = { mutable k : string; mutable v : string }

let update t provided =
  t.k <- hmac ~key:t.k (t.v ^ "\x00" ^ provided);
  t.v <- hmac ~key:t.k t.v;
  if String.length provided > 0 then begin
    t.k <- hmac ~key:t.k (t.v ^ "\x01" ^ provided);
    t.v <- hmac ~key:t.k t.v
  end

let create ?(personalization = "") ~seed () =
  let t =
    {
      k = String.make Sha256_oracle.digest_size '\x00';
      v = String.make Sha256_oracle.digest_size '\x01';
    }
  in
  update t (seed ^ personalization);
  t

let reseed t entropy = update t entropy

let generate t n =
  let buf = Buffer.create n in
  while Buffer.length buf < n do
    t.v <- hmac ~key:t.k t.v;
    Buffer.add_string buf t.v
  done;
  update t "";
  Buffer.sub buf 0 n
