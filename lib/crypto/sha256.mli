(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used by the secure-boot measurement (the boot ROM hashes the loaded
    image and compares it to the reference digest), by HKDF and the
    secure-session transcript, and by the HMAC-DRBG behind every
    verifier challenge. The kernel is straight-line code on unboxed
    64-bit words, the design of {!Sha1}; compressing a block allocates
    nothing. *)

type ctx

val init : unit -> ctx

val copy : ctx -> ctx
(** Independent snapshot of a context's midstate (see {!Sha1.copy}). *)

val reset : ctx -> unit
(** Return a context to the state {!init} gives, in place. *)

val wipe : ctx -> unit
(** {!reset} that also zeroes the partial block and the schedule words
    the last compression left behind: the context then holds nothing of
    what it hashed. *)

val midstate : ctx -> int array -> unit
(** [midstate t h] writes the eight chaining words of [t] into [h]. [t]
    must have absorbed exactly one block, as an HMAC key pad is: its
    state is then those words alone, and {!resume} continues it.
    @raise Invalid_argument unless [t] has absorbed exactly {!block_size}
    bytes, or if [h] has fewer than 8 slots. *)

val resume : ctx -> int array -> unit
(** [resume t h] puts [t], in place, in the state of a context that has
    absorbed one block and was left with the chaining words [h] — the
    inverse of {!midstate}, without allocating.
    @raise Invalid_argument if [h] has fewer than 8 slots. *)

val feed : ctx -> string -> unit

val feed_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit
(** Absorb [len] bytes of [b] starting at [pos], compressing full blocks
    straight out of [b]. The input is never mutated.
    @raise Invalid_argument if [pos]/[len] do not denote a valid range. *)

val finalize : ctx -> string
(** 32-byte digest; the context must not be reused until {!reset} or
    {!resume} overwrites it. *)

val finalize_into : ctx -> Bytes.t -> unit
(** [finalize_into t out] is {!finalize} writing the digest into the first
    32 bytes of [out] instead of a fresh string.
    @raise Invalid_argument if [out] is shorter than 32 bytes. *)

val digest : string -> string

val digest_bytes : Bytes.t -> string
(** One-shot over a byte buffer, zero-copy. *)

val digest_size : int
(** 32 bytes. *)

val block_size : int
(** 64 bytes. *)
