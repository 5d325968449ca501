(** SHA-1 (FIPS 180-4), implemented from scratch.

    The paper's Table 1 measures SHA1-HMAC on the prover, and §3.1 costs a
    SHA1-HMAC over the prover's whole writable memory; this module is the
    functional core of both. Streaming interface plus one-shot digest.

    The compression function is straight-line code: 80 unrolled rounds on
    unboxed [int64] words, with the message schedule computed inside the
    rounds over a 16-word ring. Hashing full blocks allocates nothing —
    see "Unboxed hash kernels" in DESIGN.md §5. *)

type ctx
(** Mutable hashing context. *)

val init : unit -> ctx

val copy : ctx -> ctx
(** Independent snapshot of a context's midstate. Feeding the copy leaves
    the original untouched — this is what lets HMAC cache the ipad/opad
    midstates once per key ({!Hmac.key}). *)

val feed : ctx -> string -> unit
(** Absorb bytes; may be called repeatedly. *)

val feed_bytes : ctx -> Bytes.t -> pos:int -> len:int -> unit
(** Absorb [len] bytes of [b] starting at [pos]. Full blocks are compressed
    straight out of [b] without copying. The input is never mutated.
    @raise Invalid_argument if [pos]/[len] do not denote a valid range. *)

val finalize : ctx -> string
(** Complete the hash and return the 20-byte digest. The context must not
    be used afterwards. *)

val digest : string -> string
(** One-shot: [digest s = finalize (feed (init ()) s)]. *)

val digest_bytes : Bytes.t -> string
(** One-shot over a byte buffer, zero-copy. *)

val digest_size : int
(** 20 bytes. *)

val block_size : int
(** 64 bytes — the size the per-block cost in Table 1 refers to. *)
