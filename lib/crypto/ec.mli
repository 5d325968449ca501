(** Elliptic-curve group arithmetic over a short-Weierstrass curve
    y² = x³ + ax + b, with the secp160r1 parameters the paper benchmarks
    (Table 1, "ECC (secp160r1)") built in.

    Internally points are kept in Jacobian coordinates so scalar
    multiplication needs a single field inversion. *)

type curve = {
  field : Fp.field; (* coordinate field *)
  a : Bignum.t;
  b : Bignum.t;
  g : Bignum.t * Bignum.t; (* base point, affine *)
  n : Bignum.t; (* order of g *)
  key_bytes : int; (* fixed-width encoding size, 21 for secp160r1 *)
}

type point
(** A point on the curve, including the point at infinity. *)

val secp160r1 : curve

val infinity : point
val is_infinity : point -> bool

val of_affine : curve -> Bignum.t * Bignum.t -> point
(** @raise Invalid_argument if the coordinates are not on the curve. *)

val to_affine : curve -> point -> (Bignum.t * Bignum.t) option
(** [None] for the point at infinity. *)

val base : curve -> point

val on_curve : curve -> Bignum.t * Bignum.t -> bool

val double : curve -> point -> point
val add : curve -> point -> point -> point
val neg : curve -> point -> point

val mul : curve -> Bignum.t -> point -> point
(** Scalar multiplication, double-and-add. *)

val equal : curve -> point -> point -> bool
