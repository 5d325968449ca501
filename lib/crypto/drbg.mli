(** HMAC-DRBG (NIST SP 800-90A) over SHA-256.

    Deterministic randomness for ECDSA nonces (RFC 6979-style), verifier
    challenges and reproducible simulation inputs: a given seed always yields the same
    stream, so every experiment in this repository is replayable. *)

type t
(** V and the SHA-256 midstates of K's two HMAC pads: what the next call
    needs, and nothing else. The HMACs run in a scratch that each domain
    keeps for itself (K's pad block and a working hash context), and
    every call wipes it before it returns. *)

val create : ?personalization:string -> seed:string -> unit -> t
(** Instantiate with entropy [seed] (any length). The instantiated state
    is a pure function of [seed ^ personalization], so it comes from a
    per-domain memo ({!Memo.per_domain}, four entries) keyed by that
    whole string: a state among the domain's last four instantiations is
    copied from the memo's template instead of being derived again, and
    the caller owns its copy.

    The memo keeps those four seed strings and states until later
    instantiations evict them or the domain ends. Seeds that hold a
    secret go through {!create_secret} instead. *)

val create_secret : personalization:string -> seed:string -> t
(** The same stream as [create ~personalization ~seed ()], instantiated
    without the memo: nothing derived from [seed] outlives the returned
    state. ECDSA's key generation and nonce streams use it, because their
    seeds hold the private key in clear and never recur, so in the memo
    they would keep the key reachable and evict the states that do recur,
    such as a verifier's challenge stream. *)

val reseed : t -> string -> unit

val generate : t -> int -> string
(** [generate t n] produces [n] pseudorandom bytes and advances the state.
    It allocates only the result.
    @raise Invalid_argument if [n < 0], leaving the state untouched. *)

val scratch_residue : unit -> string
(** Every byte this domain's scratch holds, marshalled: what one call
    leaves behind for the next. The wipe leaves it equal on every
    domain and after every call, and tests check that it holds nothing
    of a state. *)
