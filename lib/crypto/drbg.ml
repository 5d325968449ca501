(* HMAC-DRBG with SHA-256: the standard's state is (K, V); update and
   generate follow SP 800-90A §10.1.2 (no prediction resistance, no explicit reseed
   counter enforcement — our seeds are test/simulation inputs).

   Every verifier challenge is a draw, so a draw allocates only its
   result, and a state holds only what its next call needs: V and the
   SHA-256 midstates after K xor ipad and K xor opad. K changes only
   inside [update], which re-absorbs both pads into them. The HMACs run
   in place in a per-domain scratch: each blits a midstate into [work],
   feeds it and finalizes into V or into [key], where the new K is
   padded before its pads are absorbed. Every call wipes the scratch
   before it returns, so nothing of a state outlives it there. *)

type t = {
  v : Bytes.t; (* V, 32 bytes *)
  inner : Sha256.ctx;
  outer : Sha256.ctx;
}

type scratch = {
  key : Bytes.t; (* K in bytes 0-31, and the block its pads are built in *)
  work : Sha256.ctx;
}

let wipe s =
  Bytes.fill s.key 0 Sha256.block_size '\x00';
  Sha256.wipe s.work

let scratch =
  Domain.DLS.new_key (fun () ->
      let s = { key = Bytes.create Sha256.block_size; work = Sha256.init () } in
      wipe s;
      s)

let scratch_residue () = Marshal.to_string (Domain.DLS.get scratch) []

let out_len = Sha256.digest_size

(* An HMAC_K over V and whatever follows: [start] absorbs V after the
   ipad midstate, [finish] writes the MAC into the first 32 bytes of
   [out]. The inner digest passes through [out] too: [work] has copied it
   before [out] is written again. *)
let start t s =
  Sha256.blit t.inner s.work;
  Sha256.feed_bytes s.work t.v ~pos:0 ~len:out_len

let finish t s out =
  Sha256.finalize_into s.work out;
  Sha256.blit t.outer s.work;
  Sha256.feed_bytes s.work out ~pos:0 ~len:out_len;
  Sha256.finalize_into s.work out

(* xor the block [b] with [x] and absorb it into [ctx] from scratch *)
let absorb_pad ctx b x =
  for i = 0 to Sha256.block_size - 1 do
    Bytes.set b i (Char.chr (Char.code (Bytes.get b i) lxor x))
  done;
  Sha256.reset ctx;
  Sha256.feed_bytes ctx b ~pos:0 ~len:Sha256.block_size

(* Absorb the pads of the K in [s.key]: K zero-padded to a block, xored
   with ipad, then with ipad xor opad. This overwrites K, which nothing
   reads before the next HMAC writes a new one. *)
let rekey t s =
  Bytes.fill s.key out_len (Sha256.block_size - out_len) '\x00';
  absorb_pad t.inner s.key 0x36;
  absorb_pad t.outer s.key (0x36 lxor 0x5c)

(* V = HMAC_K(V) *)
let step_v t s =
  start t s;
  finish t s t.v

(* K = HMAC_K(V || sep || provided), then V = HMAC_K(V) *)
let step_k t s sep provided =
  start t s;
  Sha256.feed s.work sep;
  Sha256.feed s.work provided;
  finish t s s.key;
  rekey t s;
  step_v t s

let update t s provided =
  step_k t s "\x00" provided;
  if String.length provided > 0 then step_k t s "\x01" provided

let instantiate material =
  let t = { v = Bytes.make out_len '\x01'; inner = Sha256.init (); outer = Sha256.init () } in
  let s = Domain.DLS.get scratch in
  Bytes.fill s.key 0 out_len '\x00';
  rekey t s;
  update t s material;
  wipe s;
  t

(* Instantiated states by seed material. Every world of a fleet
   instantiates its verifier's challenge stream from the same key, so
   the states recur; the memo's templates are never drawn from, and
   each caller gets its own copy of V and both midstates. *)
let instantiated = Memo.per_domain ~capacity:4 ~equal:String.equal instantiate

let create ?(personalization = "") ~seed () =
  let s = instantiated (seed ^ personalization) in
  { v = Bytes.copy s.v; inner = Sha256.copy s.inner; outer = Sha256.copy s.outer }

let create_secret ~personalization ~seed = instantiate (seed ^ personalization)

let reseed t entropy =
  let s = Domain.DLS.get scratch in
  update t s entropy;
  wipe s

let generate t n =
  if n < 0 then invalid_arg "Drbg.generate";
  let s = Domain.DLS.get scratch in
  let out = Bytes.create n in
  let off = ref 0 in
  while !off < n do
    step_v t s;
    let take = if n - !off < out_len then n - !off else out_len in
    Bytes.blit t.v 0 out !off take;
    off := !off + take
  done;
  update t s "";
  wipe s;
  Bytes.unsafe_to_string out
