module B = Bignum

type keypair = { secret : B.t; public : Ec.point }
type signature = { r : B.t; s : B.t }

(* Reduce a byte string into [1, n-1] by interpretation mod (n-1) + 1. *)
let scalar_of_bytes n bytes =
  B.add (B.rem (B.of_bytes_be bytes) (B.sub n B.one)) B.one

let fresh_scalar curve drbg =
  scalar_of_bytes curve.Ec.n (Drbg.generate drbg (curve.Ec.key_bytes + 8))

let public_of_secret curve secret = Ec.mul curve secret (Ec.base curve)

let generate_keypair curve ~seed =
  let drbg = Drbg.create_secret ~personalization:"ecdsa-keygen" ~seed in
  let secret = fresh_scalar curve drbg in
  { secret; public = public_of_secret curve secret }

(* Digest truncated/interpreted as an integer mod n (FIPS 186-4 §6.4,
   with the left-most-bits rule applied via shifting). *)
let hash_to_int curve msg =
  let digest = Sha1.digest msg in
  let z = B.of_bytes_be digest in
  let qbits = B.bit_length curve.Ec.n in
  let hbits = 8 * String.length digest in
  let z = if hbits > qbits then B.shift_right z (hbits - qbits) else z in
  B.rem z curve.Ec.n

let sign curve ~secret msg =
  let fn = Fp.make curve.Ec.n in
  let z = hash_to_int curve msg in
  (* deterministic nonce stream keyed by (secret, message digest) *)
  let drbg =
    Drbg.create_secret ~personalization:"ecdsa-nonce"
      ~seed:(B.to_bytes_be ~pad:curve.Ec.key_bytes secret ^ Sha1.digest msg)
  in
  let rec attempt () =
    let k = fresh_scalar curve drbg in
    match Ec.to_affine curve (Ec.mul curve k (Ec.base curve)) with
    | None -> attempt ()
    | Some (x, _) ->
      let r = B.rem x curve.Ec.n in
      if B.is_zero r then attempt ()
      else begin
        let s = Fp.mul fn (Fp.inv fn k) (Fp.add fn z (Fp.mul fn r secret)) in
        if B.is_zero s then attempt () else { r; s }
      end
  in
  attempt ()

let valid_scalar curve v = (not (B.is_zero v)) && B.compare v curve.Ec.n < 0

let verify curve ~public ~msg { r; s } =
  if not (valid_scalar curve r && valid_scalar curve s) then false
  else if Ec.is_infinity public then false
  else begin
    let fn = Fp.make curve.Ec.n in
    let z = hash_to_int curve msg in
    let w = Fp.inv fn s in
    let u1 = Fp.mul fn z w and u2 = Fp.mul fn r w in
    let pt = Ec.add curve (Ec.mul curve u1 (Ec.base curve)) (Ec.mul curve u2 public) in
    match Ec.to_affine curve pt with
    | None -> false
    | Some (x, _) -> B.equal (B.rem x curve.Ec.n) r
  end

let signature_to_bytes curve { r; s } =
  B.to_bytes_be ~pad:curve.Ec.key_bytes r ^ B.to_bytes_be ~pad:curve.Ec.key_bytes s

let signature_of_bytes curve bytes =
  let w = curve.Ec.key_bytes in
  if String.length bytes <> 2 * w then None
  else
    Some
      {
        r = B.of_bytes_be (String.sub bytes 0 w);
        s = B.of_bytes_be (String.sub bytes w w);
      }
