(** SHA-1 (FIPS 180-4), implemented from scratch.

    The paper's Table 1 measures SHA1-HMAC on the prover, and §3.1 costs a
    SHA1-HMAC over the prover's whole writable memory; this module is the
    functional core of both. It holds the hash's initial chaining words
    and its compression function; the streaming framing is {!Md}'s.

    The compression function is straight-line code: 80 unrolled rounds on
    unboxed [int64] words, with the message schedule computed inside the
    rounds over a 16-word ring. Hashing full blocks allocates nothing —
    see "Unboxed hash kernels" in DESIGN.md §5. *)

val init : unit -> Md.ctx
(** A fresh SHA-1 context; {!Md} streams it. *)

val feed : Md.ctx -> string -> unit
(** {!Md.feed}. *)

val finalize : Md.ctx -> string
(** {!Md.finalize}: the 20-byte digest. *)

val digest : string -> string
(** One-shot: [digest s = finalize (feed (init ()) s)]. *)

val digest_size : int
(** 20 bytes. *)
