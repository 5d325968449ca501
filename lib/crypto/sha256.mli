(** SHA-256 (FIPS 180-4), implemented from scratch.

    Used by the secure-boot measurement (the boot ROM hashes the loaded
    image and compares it to the reference digest), by HKDF and the
    secure-session transcript, and by the HMAC-DRBG behind every
    verifier challenge. It holds the hash's initial chaining words and
    its compression function, straight-line code on unboxed 64-bit
    words as in {!Sha1}; the streaming framing is {!Md}'s. Compressing a
    block allocates nothing. *)

val init : unit -> Md.ctx
(** A fresh SHA-256 context; {!Md} streams it. *)

val digest : string -> string
(** One-shot 32-byte digest. *)
