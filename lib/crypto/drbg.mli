(** HMAC-DRBG (NIST SP 800-90A) over SHA-256.

    Deterministic randomness for ECDSA nonces (RFC 6979-style), verifier
    challenges and reproducible simulation inputs: a given seed always yields the same
    stream, so every experiment in this repository is replayable. *)

type t

val create : ?personalization:string -> seed:string -> unit -> t
(** Instantiate with entropy [seed] (any length). *)

val reseed : t -> string -> unit

val generate : t -> int -> string
(** [generate t n] produces [n] pseudorandom bytes and advances the state.
    It allocates only the result.
    @raise Invalid_argument if [n < 0], leaving the state untouched. *)
