(** The Merkle–Damgård framing that {!Sha1} and {!Sha256} share
    (FIPS 180-4 §5): the hashing context, the partial block, the
    zero-copy full-block loop, the padding and the digest. A hash
    supplies only its initial chaining words and its compression
    function; everything here exists once for both.

    The paper costs the attestation MAC the same way: a fixed part plus
    one compression per 64-byte block (Table 1, §3.1). *)

type ctx = {
  compress : ctx -> Bytes.t -> int -> unit;
      (** the hash's compression of the block at an offset: it reads the
          chaining words, uses [ring] for its message schedule and writes
          the new chaining words back *)
  iv : int array;  (** initial chaining words: five for SHA-1, eight for SHA-256 *)
  mutable h0 : int;  (** chaining words, each < 2^32; SHA-1 uses [h0]–[h4] *)
  mutable h1 : int;
  mutable h2 : int;
  mutable h3 : int;
  mutable h4 : int;
  mutable h5 : int;
  mutable h6 : int;
  mutable h7 : int;
  ring : Bytes.t;  (** 128 bytes: the schedule words w(i-16) .. w(i-1), slot [i land 15] *)
  buf : Bytes.t;  (** the partial block *)
  mutable buf_len : int;
  mutable total : int;  (** bytes absorbed *)
}
(** A hashing context. Only a compression function touches the fields;
    everything else goes through the functions below. It holds a
    function, so [=] and [compare] raise on any value that reaches one
    (an {!Hmac.key_ctx}, a verifier). *)

val block_size : int
(** 64 bytes for both hashes: the block Table 1's per-block cost refers to. *)

val create : iv:int array -> (ctx -> Bytes.t -> int -> unit) -> ctx
(** A fresh context of the hash with these initial chaining words and
    this compression function. *)

val copy : ctx -> ctx
(** Independent snapshot of a context's midstate. Feeding the copy leaves
    the original untouched: this is what lets HMAC cache the ipad/opad
    midstates once per key ({!Hmac.key}). *)

val reset : ctx -> unit
(** Return a context to the state {!create} gives, in place. *)

val wipe : ctx -> unit
(** {!reset} that also zeroes the partial block and the schedule words
    the last compression left behind: the context then holds nothing of
    what it hashed. *)

val midstate : ctx -> int array -> unit
(** [midstate t h] writes the chaining words of [t] into [h]. [t] must
    have absorbed exactly one block, as an HMAC key pad is: its state is
    then those words alone, and {!resume} continues it.
    @raise Invalid_argument unless [t] has absorbed exactly {!block_size}
    bytes, or if [h] has fewer slots than the hash has chaining words. *)

val resume : ctx -> int array -> unit
(** [resume t h] puts [t], in place, in the state of a context that has
    absorbed one block and was left with the chaining words [h]: the
    inverse of {!midstate}, without allocating.
    @raise Invalid_argument if [h] has fewer slots than the hash has
    chaining words. *)

val feed : ctx -> string -> unit
(** Absorb bytes; may be called repeatedly. *)

val feed_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit
(** Absorb [len] bytes of [b] starting at [pos]. Full blocks are
    compressed straight out of [b] without copying, and without
    allocating. The input is never mutated.
    @raise Invalid_argument if [pos]/[len] do not denote a valid range. *)

val finalize : ctx -> string
(** Pad, and return the digest (20 bytes for SHA-1, 32 for SHA-256). The
    context must not be reused until {!reset} or {!resume} overwrites
    it. *)

val finalize_into : ctx -> Bytes.t -> unit
(** [finalize_into t out] is {!finalize} writing the digest into the
    first bytes of [out] instead of a fresh string.
    @raise Invalid_argument if [out] is shorter than the digest. *)

val digest : (unit -> ctx) -> string -> string
(** [digest init s] hashes [s] in a fresh context from [init]. *)
