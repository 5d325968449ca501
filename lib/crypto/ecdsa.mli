(** ECDSA over secp160r1 (or any {!Ec.curve}), with deterministic
    RFC 6979-style nonces derived by HMAC-DRBG so signing is reproducible
    and never reuses a nonce.

    This is the public-key option the paper rules out in §4.1 for
    request authentication — we implement it anyway, both because Table 1
    benchmarks it and because the cost comparison (bench [auth-cost])
    needs a real signer/verifier. *)

type keypair = { secret : Bignum.t; public : Ec.point }

type signature = { r : Bignum.t; s : Bignum.t }

val generate_keypair : Ec.curve -> seed:string -> keypair
(** Deterministic key generation from a seed (simulation-friendly). *)

val sign : Ec.curve -> secret:Bignum.t -> string -> signature
(** Sign the SHA-1 digest of the message. *)

val verify : Ec.curve -> public:Ec.point -> msg:string -> signature -> bool

val signature_to_bytes : Ec.curve -> signature -> string
(** Fixed-width [r || s] encoding (2 × key_bytes). *)

val signature_of_bytes : Ec.curve -> string -> signature option
