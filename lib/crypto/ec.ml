(* Jacobian-coordinate group law for y^2 = x^3 + ax + b. Formulae follow
   the standard dbl-2007-bl / add-2007-bl shapes specialized to the
   general-a case (secp160r1 has a = p-3 but we do not exploit it). *)

module B = Bignum

type curve = {
  field : Fp.field;
  a : B.t;
  b : B.t;
  g : B.t * B.t;
  n : B.t;
  key_bytes : int;
}

type point = Infinity | Jacobian of B.t * B.t * B.t

let secp160r1 =
  let p = B.of_hex "ffffffffffffffffffffffffffffffff7fffffff" in
  {
    field = Fp.make p;
    a = B.of_hex "ffffffffffffffffffffffffffffffff7ffffffc";
    b = B.of_hex "1c97befc54bd7a8b65acf89f81d4d4adc565fa45";
    g =
      ( B.of_hex "4a96b5688ef573284664698968c38bb913cbfc82",
        B.of_hex "23a628553168947d59dcc912042351377ac5fb32" );
    n = B.of_hex "0100000000000000000001f4c8f927aed3ca752257";
    key_bytes = 21;
  }

let infinity = Infinity
let is_infinity = function Infinity -> true | Jacobian _ -> false

let on_curve c (x, y) =
  let f = c.field in
  let lhs = Fp.sqr f y in
  let rhs = Fp.add f (Fp.add f (Fp.mul f (Fp.sqr f x) x) (Fp.mul f c.a x)) c.b in
  B.equal lhs rhs

let of_affine c (x, y) =
  if not (on_curve c (x, y)) then invalid_arg "Ec.of_affine: point not on curve";
  Jacobian (x, y, B.one)

let base c = of_affine c c.g

let to_affine c = function
  | Infinity -> None
  | Jacobian (x, y, z) ->
    let f = c.field in
    let zi = Fp.inv f z in
    let zi2 = Fp.sqr f zi in
    Some (Fp.mul f x zi2, Fp.mul f y (Fp.mul f zi2 zi))

let neg c = function
  | Infinity -> Infinity
  | Jacobian (x, y, z) -> Jacobian (x, Fp.neg c.field y, z)

let double c = function
  | Infinity -> Infinity
  | Jacobian (x, y, z) as pt ->
    let f = c.field in
    if B.is_zero y then Infinity
    else begin
      ignore pt;
      let ysq = Fp.sqr f y in
      let s = Fp.mul f (B.of_int 4) (Fp.mul f x ysq) in
      let z4 = Fp.sqr f (Fp.sqr f z) in
      let m = Fp.add f (Fp.mul f (B.of_int 3) (Fp.sqr f x)) (Fp.mul f c.a z4) in
      let x' = Fp.sub f (Fp.sqr f m) (Fp.mul f B.two s) in
      let y' = Fp.sub f (Fp.mul f m (Fp.sub f s x')) (Fp.mul f (B.of_int 8) (Fp.sqr f ysq)) in
      let z' = Fp.mul f B.two (Fp.mul f y z) in
      Jacobian (x', y', z')
    end

let add c p q =
  match (p, q) with
  | Infinity, q -> q
  | p, Infinity -> p
  | Jacobian (x1, y1, z1), Jacobian (x2, y2, z2) ->
    let f = c.field in
    let z1z1 = Fp.sqr f z1 and z2z2 = Fp.sqr f z2 in
    let u1 = Fp.mul f x1 z2z2 and u2 = Fp.mul f x2 z1z1 in
    let s1 = Fp.mul f y1 (Fp.mul f z2 z2z2) in
    let s2 = Fp.mul f y2 (Fp.mul f z1 z1z1) in
    if B.equal u1 u2 then
      if B.equal s1 s2 then double c p else Infinity
    else begin
      let h = Fp.sub f u2 u1 in
      let hh = Fp.sqr f h in
      let hhh = Fp.mul f h hh in
      let r = Fp.sub f s2 s1 in
      let v = Fp.mul f u1 hh in
      let x3 = Fp.sub f (Fp.sub f (Fp.sqr f r) hhh) (Fp.mul f B.two v) in
      let y3 = Fp.sub f (Fp.mul f r (Fp.sub f v x3)) (Fp.mul f s1 hhh) in
      let z3 = Fp.mul f h (Fp.mul f z1 z2) in
      Jacobian (x3, y3, z3)
    end

let mul c k pt =
  let k = B.rem k c.n in
  let bits = B.bit_length k in
  let acc = ref Infinity in
  for i = bits - 1 downto 0 do
    acc := double c !acc;
    if B.test_bit k i then acc := add c !acc pt
  done;
  !acc

let equal c p q =
  match (to_affine c p, to_affine c q) with
  | None, None -> true
  | Some (x1, y1), Some (x2, y2) -> B.equal x1 x2 && B.equal y1 y2
  | None, Some _ | Some _, None -> false
