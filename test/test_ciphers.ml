(* AES-128 (FIPS 197 / SP 800-38A) and Speck 64/128 (ePrint 2013/404)
   known-answer tests plus round-trip properties. *)
open Ra_crypto

let hex = Hexutil.to_hex
let unhex = Hexutil.of_hex
let check = Alcotest.(check string)

let test_aes_fips197 () =
  let key = Aes.expand (unhex "000102030405060708090a0b0c0d0e0f") in
  let pt = unhex "00112233445566778899aabbccddeeff" in
  let ct = Aes.encrypt_block key pt in
  check "encrypt" "69c4e0d86a7b0430d8cdb78070b4c55a" (hex ct);
  check "decrypt" (hex pt) (hex (Aes.decrypt_block key ct))

let test_aes_sp80038a () =
  (* AES-128 ECB vectors from SP 800-38A F.1.1 *)
  let key = Aes.expand (unhex "2b7e151628aed2a6abf7158809cf4f3c") in
  let cases =
    [
      ("6bc1bee22e409f96e93d7e117393172a", "3ad77bb40d7a3660a89ecaf32466ef97");
      ("ae2d8a571e03ac9c9eb76fac45af8e51", "f5d3d58503b9699de785895a96fdbaaf");
      ("30c81c46a35ce411e5fbc1191a0a52ef", "43b1cd7f598ece23881b00e3ed030688");
      ("f69f2445df4f9b17ad2b417be66c3710", "7b0c785e27e8ad3f8223207104725dd4");
    ]
  in
  List.iter
    (fun (pt, expected) ->
      check pt expected (hex (Aes.encrypt_block key (unhex pt))))
    cases

let test_aes_bad_lengths () =
  Alcotest.check_raises "short key" (Invalid_argument "Aes.expand: need 16 bytes")
    (fun () -> ignore (Aes.expand "short"));
  let key = Aes.expand (String.make 16 'k') in
  Alcotest.check_raises "short block" (Invalid_argument "Aes.encrypt_block") (fun () ->
      ignore (Aes.encrypt_block key "short"))

let test_speck_vector () =
  (* Speck64/128 test vector from the SIMON & SPECK paper appendix *)
  let key = Speck.expand (unhex "0001020308090a0b1011121318191a1b") in
  let pt = unhex "2d4375747465723b" in
  let ct = Speck.encrypt_block key pt in
  check "encrypt" "8b024e4548a56f8c" (hex ct);
  check "decrypt" (hex pt) (hex (Speck.decrypt_block key ct))

let test_speck_bad_lengths () =
  Alcotest.check_raises "short key" (Invalid_argument "Speck.expand: need 16 bytes")
    (fun () -> ignore (Speck.expand "short"));
  let key = Speck.expand (String.make 16 'k') in
  Alcotest.check_raises "bad block" (Invalid_argument "Speck.encrypt_block") (fun () ->
      ignore (Speck.encrypt_block key "bad"))

let qcheck_aes_roundtrip =
  QCheck.Test.make ~name:"aes: decrypt . encrypt = id" ~count:100
    QCheck.(pair (string_of_size Gen.(return 16)) (string_of_size Gen.(return 16)))
    (fun (k, pt) ->
      let key = Aes.expand k in
      Aes.decrypt_block key (Aes.encrypt_block key pt) = pt)

let qcheck_speck_roundtrip =
  QCheck.Test.make ~name:"speck: decrypt . encrypt = id" ~count:200
    QCheck.(pair (string_of_size Gen.(return 16)) (string_of_size Gen.(return 8)))
    (fun (k, pt) ->
      let key = Speck.expand k in
      Speck.decrypt_block key (Speck.encrypt_block key pt) = pt)

let qcheck_aes_key_avalanche =
  QCheck.Test.make ~name:"aes: key bit flip changes ciphertext" ~count:50
    QCheck.(string_of_size Gen.(return 16))
    (fun k ->
      let k' = Bytes.of_string k in
      Bytes.set k' 0 (Char.chr (Char.code (Bytes.get k' 0) lxor 0x80));
      let pt = String.make 16 'p' in
      Aes.encrypt_block (Aes.expand k) pt
      <> Aes.encrypt_block (Aes.expand (Bytes.to_string k')) pt)

let tests =
  [
    Alcotest.test_case "AES FIPS-197 vector" `Quick test_aes_fips197;
    Alcotest.test_case "AES SP800-38A vectors" `Quick test_aes_sp80038a;
    Alcotest.test_case "AES bad lengths" `Quick test_aes_bad_lengths;
    Alcotest.test_case "Speck 64/128 vector" `Quick test_speck_vector;
    Alcotest.test_case "Speck bad lengths" `Quick test_speck_bad_lengths;
    QCheck_alcotest.to_alcotest qcheck_aes_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_speck_roundtrip;
    QCheck_alcotest.to_alcotest qcheck_aes_key_avalanche;
  ]
