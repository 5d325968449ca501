(** SplitMix64 pseudorandom generator for simulation workloads (memory
    images, message jitter, fuzzed inputs). Not cryptographic — crypto
    randomness comes from {!Drbg}. Fully deterministic from the seed so
    every benchmark run is reproducible.

    The state is one unboxed 64-bit word, so no draw allocates: {!bytes}
    allocates only its result, and {!next_int64} only the [int64] it
    returns when the caller keeps it boxed. *)

type t

val create : int64 -> t
val next_int64 : t -> int64

val int : t -> int -> int
(** [int t bound] is uniform in [0, bound).
    @raise Invalid_argument if [bound <= 0]. *)

val bool : t -> bool

val float : t -> float -> float
(** Uniform in [0, bound). *)

val bytes : t -> int -> string
(** [bytes t n] is [n] pseudorandom bytes. *)

val split : t -> t
(** Derive an independent stream (for per-device generators). *)
