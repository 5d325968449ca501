(** Prime-field arithmetic over {!Bignum}, parameterized by the modulus.
    Used for both the secp160r1 coordinate field and arithmetic modulo the
    group order in ECDSA. *)

type field
(** A prime modulus together with cached constants. *)

val make : Bignum.t -> field
(** [make p] builds the field Z/pZ. [p] must be an odd prime > 2; primality
    is the caller's responsibility (we only use published curve constants). *)

val add : field -> Bignum.t -> Bignum.t -> Bignum.t
val sub : field -> Bignum.t -> Bignum.t -> Bignum.t
val neg : field -> Bignum.t -> Bignum.t
val mul : field -> Bignum.t -> Bignum.t -> Bignum.t
val sqr : field -> Bignum.t -> Bignum.t

val inv : field -> Bignum.t -> Bignum.t
(** Multiplicative inverse by Fermat's little theorem.
    @raise Division_by_zero on zero. *)
