(* secp160r1 group laws and ECDSA behaviour. *)
open Ra_crypto
module B = Bignum

let curve = Ec.secp160r1
let g () = Ec.base curve

let test_curve_parameters () =
  Alcotest.(check bool) "G on curve" true (Ec.on_curve curve curve.Ec.g);
  Alcotest.(check bool) "n*G = infinity" true
    (Ec.is_infinity (Ec.mul curve curve.Ec.n (g ())));
  Alcotest.(check bool) "(n-1)*G = -G" true
    (Ec.equal curve
       (Ec.mul curve (B.sub curve.Ec.n B.one) (g ()))
       (Ec.neg curve (g ())))

let test_group_laws () =
  let p2 = Ec.double curve (g ()) in
  let p3 = Ec.add curve p2 (g ()) in
  Alcotest.(check bool) "2G + G = 3G" true
    (Ec.equal curve p3 (Ec.mul curve (B.of_int 3) (g ())));
  Alcotest.(check bool) "G + inf = G" true
    (Ec.equal curve (g ()) (Ec.add curve (g ()) Ec.infinity));
  Alcotest.(check bool) "G + (-G) = inf" true
    (Ec.is_infinity (Ec.add curve (g ()) (Ec.neg curve (g ()))));
  Alcotest.(check bool) "double inf = inf" true (Ec.is_infinity (Ec.double curve Ec.infinity))

let test_of_affine_validates () =
  Alcotest.check_raises "rejects off-curve point"
    (Invalid_argument "Ec.of_affine: point not on curve") (fun () ->
      ignore (Ec.of_affine curve (B.one, B.one)))

let qcheck_scalar_distributes =
  QCheck.Test.make ~name:"ec: (a+b)G = aG + bG" ~count:15
    QCheck.(pair (int_range 1 100000) (int_range 1 100000))
    (fun (a, b) ->
      let lhs = Ec.mul curve (B.of_int (a + b)) (g ()) in
      let rhs = Ec.add curve (Ec.mul curve (B.of_int a) (g ())) (Ec.mul curve (B.of_int b) (g ())) in
      Ec.equal curve lhs rhs)

let qcheck_scalar_assoc =
  QCheck.Test.make ~name:"ec: a(bG) = (ab)G" ~count:10
    QCheck.(pair (int_range 2 1000) (int_range 2 1000))
    (fun (a, b) ->
      let lhs = Ec.mul curve (B.of_int a) (Ec.mul curve (B.of_int b) (g ())) in
      let rhs = Ec.mul curve (B.of_int (a * b)) (g ()) in
      Ec.equal curve lhs rhs)

let test_ecdsa_roundtrip () =
  let kp = Ecdsa.generate_keypair curve ~seed:"test-device" in
  let signature = Ecdsa.sign curve ~secret:kp.Ecdsa.secret "attest me" in
  Alcotest.(check bool) "verifies" true
    (Ecdsa.verify curve ~public:kp.Ecdsa.public ~msg:"attest me" signature);
  Alcotest.(check bool) "wrong message" false
    (Ecdsa.verify curve ~public:kp.Ecdsa.public ~msg:"attest mE" signature);
  let other = Ecdsa.generate_keypair curve ~seed:"other" in
  Alcotest.(check bool) "wrong key" false
    (Ecdsa.verify curve ~public:other.Ecdsa.public ~msg:"attest me" signature)

let test_ecdsa_deterministic () =
  let kp = Ecdsa.generate_keypair curve ~seed:"test-device" in
  let s1 = Ecdsa.sign curve ~secret:kp.Ecdsa.secret "m" in
  let s2 = Ecdsa.sign curve ~secret:kp.Ecdsa.secret "m" in
  Alcotest.(check bool) "same msg, same sig" true (s1.Ecdsa.r = s2.Ecdsa.r && s1.Ecdsa.s = s2.Ecdsa.s);
  let s3 = Ecdsa.sign curve ~secret:kp.Ecdsa.secret "m'" in
  Alcotest.(check bool) "different msg, different nonce" true (s1.Ecdsa.r <> s3.Ecdsa.r)

let test_ecdsa_wire () =
  let kp = Ecdsa.generate_keypair curve ~seed:"wire" in
  let signature = Ecdsa.sign curve ~secret:kp.Ecdsa.secret "msg" in
  let bytes = Ecdsa.signature_to_bytes curve signature in
  Alcotest.(check int) "fixed width" (2 * curve.Ec.key_bytes) (String.length bytes);
  (match Ecdsa.signature_of_bytes curve bytes with
  | Some decoded ->
    Alcotest.(check bool) "roundtrip verifies" true
      (Ecdsa.verify curve ~public:kp.Ecdsa.public ~msg:"msg" decoded)
  | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "bad length rejected" true
    (Ecdsa.signature_of_bytes curve "short" = None)

let test_ecdsa_rejects_zero_sig () =
  let kp = Ecdsa.generate_keypair curve ~seed:"zero" in
  let bogus = { Ecdsa.r = B.zero; s = B.one } in
  Alcotest.(check bool) "r=0 rejected" false
    (Ecdsa.verify curve ~public:kp.Ecdsa.public ~msg:"m" bogus);
  let bogus2 = { Ecdsa.r = curve.Ec.n; s = B.one } in
  Alcotest.(check bool) "r=n rejected" false
    (Ecdsa.verify curve ~public:kp.Ecdsa.public ~msg:"m" bogus2)

let qcheck_ecdsa_random_messages =
  QCheck.Test.make ~name:"ecdsa: sign/verify over random messages" ~count:8
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun msg ->
      let kp = Ecdsa.generate_keypair curve ~seed:"qc" in
      let signature = Ecdsa.sign curve ~secret:kp.Ecdsa.secret msg in
      Ecdsa.verify curve ~public:kp.Ecdsa.public ~msg signature)

let tests =
  [
    Alcotest.test_case "curve parameters" `Quick test_curve_parameters;
    Alcotest.test_case "group laws" `Quick test_group_laws;
    Alcotest.test_case "of_affine validates" `Quick test_of_affine_validates;
    Alcotest.test_case "ecdsa roundtrip" `Quick test_ecdsa_roundtrip;
    Alcotest.test_case "ecdsa deterministic nonces" `Quick test_ecdsa_deterministic;
    Alcotest.test_case "ecdsa wire format" `Quick test_ecdsa_wire;
    Alcotest.test_case "ecdsa rejects out-of-range" `Quick test_ecdsa_rejects_zero_sig;
    QCheck_alcotest.to_alcotest qcheck_scalar_distributes;
    QCheck_alcotest.to_alcotest qcheck_scalar_assoc;
    QCheck_alcotest.to_alcotest qcheck_ecdsa_random_messages;
  ]
