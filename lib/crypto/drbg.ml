(* HMAC-DRBG with SHA-256: state is (K, V); update/generate follow
   SP 800-90A §10.1.2 (no prediction resistance, no explicit reseed
   counter enforcement — our seeds are test/simulation inputs).

   Every verifier challenge is a draw, so a draw allocates only its
   result. The HMACs run in place in contexts the state owns:
   - [inner] and [outer] hold the SHA-256 midstates after K xor ipad and
     K xor opad. K changes only inside [update], which re-absorbs both
     pads into them;
   - each HMAC blits a midstate into [work], feeds it and finalizes into
     V or into K, so no context or digest string is ever allocated. *)

type t = {
  v : Bytes.t; (* V, 32 bytes *)
  key : Bytes.t; (* K in bytes 0-31, and the scratch block its pads are built in *)
  inner : Sha256.ctx;
  outer : Sha256.ctx;
  work : Sha256.ctx;
}

let out_len = Sha256.digest_size

(* An HMAC_K over V and whatever follows: [start] absorbs V after the
   ipad midstate, [finish] writes the MAC into the first 32 bytes of
   [out]. The inner digest passes through [out] too: [work] has copied it
   before [out] is written again. *)
let start t =
  Sha256.blit t.inner t.work;
  Sha256.feed_bytes t.work t.v ~pos:0 ~len:out_len

let finish t out =
  Sha256.finalize_into t.work out;
  Sha256.blit t.outer t.work;
  Sha256.feed_bytes t.work out ~pos:0 ~len:out_len;
  Sha256.finalize_into t.work out

(* xor the block [b] with [x] and absorb it into [ctx] from scratch *)
let absorb_pad ctx b x =
  for i = 0 to Sha256.block_size - 1 do
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x))
  done;
  Sha256.reset ctx;
  Sha256.feed_bytes ctx b ~pos:0 ~len:Sha256.block_size

(* Absorb the pads of the K in [key]: K zero-padded to a block, xored
   with ipad, then with ipad xor opad. This overwrites K, which nothing
   reads before the next HMAC writes a new one. *)
let rekey t =
  Bytes.fill t.key out_len (Sha256.block_size - out_len) '\x00';
  absorb_pad t.inner t.key 0x36;
  absorb_pad t.outer t.key (0x36 lxor 0x5c)

(* V = HMAC_K(V) *)
let step_v t =
  start t;
  finish t t.v

(* K = HMAC_K(V || sep || provided), then V = HMAC_K(V) *)
let step_k t sep provided =
  start t;
  Sha256.feed t.work sep;
  Sha256.feed t.work provided;
  finish t t.key;
  rekey t;
  step_v t

let update t provided =
  step_k t "\x00" provided;
  if String.length provided > 0 then step_k t "\x01" provided

let instantiate material =
  let t =
    {
      v = Bytes.make out_len '\x01';
      key = Bytes.make Sha256.block_size '\x00';
      inner = Sha256.init ();
      outer = Sha256.init ();
      work = Sha256.init ();
    }
  in
  rekey t;
  update t material;
  t

(* Instantiated states by seed material. Every world of a fleet
   instantiates its verifier's challenge stream from the same key, so
   the states recur; the memo's templates are never drawn from, and
   each caller gets its own copy of V, K and both midstates. *)
let instantiated = Memo.per_domain ~capacity:4 ~equal:String.equal instantiate

let create ?(personalization = "") ~seed () =
  let s = instantiated (seed ^ personalization) in
  {
    v = Bytes.copy s.v;
    key = Bytes.copy s.key;
    inner = Sha256.copy s.inner;
    outer = Sha256.copy s.outer;
    work = Sha256.init ();
  }

let create_secret ~personalization ~seed = instantiate (seed ^ personalization)

let reseed t entropy = update t entropy

let generate t n =
  if n < 0 then invalid_arg "Drbg.generate";
  let out = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    step_v t;
    let take = if n - !off < out_len then n - !off else out_len in
    Bytes.blit t.v 0 out !off take;
    off := !off + take
  done;
  update t "";
  Bytes.unsafe_to_string out
