(** Arbitrary-precision natural numbers, from scratch (the sealed build
    environment has no zarith). Sized for the 160/161-bit values of
    secp160r1; little-endian 26-bit limbs so products fit in OCaml's
    63-bit ints.

    All values are non-negative; subtraction of a larger number raises. *)

type t
(** Immutable natural number. *)

val zero : t
val one : t
val two : t

val of_int : int -> t
(** @raise Invalid_argument on negative input. *)

val to_int : t -> int
(** @raise Failure if the value exceeds [max_int]. *)

val of_hex : string -> t
val to_hex : t -> string

val of_bytes_be : string -> t
val to_bytes_be : ?pad:int -> t -> string
(** Big-endian encoding; [pad] left-pads with zero bytes to a minimum
    width (as ECDSA's fixed-width wire format needs). *)

val compare : t -> t -> int
val equal : t -> t -> bool
val is_zero : t -> bool

val add : t -> t -> t

val sub : t -> t -> t
(** @raise Invalid_argument if the result would be negative. *)

val mul : t -> t -> t

val divmod : t -> t -> t * t
(** [divmod a b = (q, r)] with [a = q*b + r], [0 <= r < b].
    @raise Division_by_zero if [b] is zero. *)

val rem : t -> t -> t

val shift_left : t -> int -> t
val shift_right : t -> int -> t

val bit_length : t -> int
val test_bit : t -> int -> bool

val is_even : t -> bool
val is_odd : t -> bool
