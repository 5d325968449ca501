module B = Bignum

type field = { p : B.t; p_minus_2 : B.t }

let make p = { p; p_minus_2 = B.sub p B.two }
let reduce f a = B.rem a f.p

let add f a b =
  let s = B.add a b in
  if B.compare s f.p >= 0 then B.sub s f.p else s

let sub f a b = if B.compare a b >= 0 then B.sub a b else B.sub f.p (B.sub b a)
let neg f a = if B.is_zero a then a else B.sub f.p a
let mul f a b = B.rem (B.mul a b) f.p
let sqr f a = mul f a a

let pow f base e =
  (* left-to-right square and multiply *)
  let bits = B.bit_length e in
  let acc = ref B.one in
  let base = reduce f base in
  for i = bits - 1 downto 0 do
    acc := sqr f !acc;
    if B.test_bit e i then acc := mul f !acc base
  done;
  !acc

let inv f a =
  let a = reduce f a in
  if B.is_zero a then raise Division_by_zero;
  pow f a f.p_minus_2
