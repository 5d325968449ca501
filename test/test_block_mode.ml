open Ra_crypto

let unhex = Hexutil.of_hex
let hex = Hexutil.to_hex

let aes_cipher () = Block_mode.aes (Aes.expand (String.make 16 'k'))
let speck_cipher () = Block_mode.speck (Speck.expand (String.make 16 'k'))

let test_pkcs7 () =
  Alcotest.(check string) "pads to block" "ab\x02\x02" (Block_mode.pad_pkcs7 4 "ab");
  Alcotest.(check string)
    "full block when aligned" "abcd\x04\x04\x04\x04"
    (Block_mode.pad_pkcs7 4 "abcd")

let test_cbc_mac_properties () =
  let c = aes_cipher () in
  let tag = Block_mode.cbc_mac c "message" in
  Alcotest.(check int) "tag is one block" 16 (String.length tag);
  Alcotest.(check bool) "verifies" true
    (Block_mode.cbc_mac_verify c ~msg:"message" ~tag);
  Alcotest.(check bool) "rejects change" false
    (Block_mode.cbc_mac_verify c ~msg:"messagE" ~tag);
  (* length prefix defeats the classic extension forgery where
     mac(m1) is reused as the IV-equivalent state for m1 || m2 *)
  Alcotest.(check bool) "length-distinct" true
    (Block_mode.cbc_mac c "aa" <> Block_mode.cbc_mac c "aa\x00")

let qcheck_cbc_mac_msg_sensitivity =
  QCheck.Test.make ~name:"cbc-mac: distinct messages, distinct tags" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 60)) (string_of_size Gen.(0 -- 60)))
    (fun (m1, m2) ->
      QCheck.assume (m1 <> m2);
      let c = speck_cipher () in
      Block_mode.cbc_mac c m1 <> Block_mode.cbc_mac c m2)

let test_ctr_basics () =
  let c = aes_cipher () in
  let nonce = String.make 8 'n' in
  let pt = "stream me, any length at all" in
  let ct = Block_mode.ctr_crypt c ~nonce pt in
  Alcotest.(check int) "length-preserving" (String.length pt) (String.length ct);
  Alcotest.(check bool) "ciphertext differs" true (ct <> pt);
  Alcotest.(check string) "crypt is an involution" pt
    (Block_mode.ctr_crypt c ~nonce ct);
  Alcotest.(check string) "empty input" "" (Block_mode.ctr_crypt c ~nonce "");
  Alcotest.(check bool) "nonce matters" true
    (Block_mode.ctr_crypt c ~nonce:(String.make 8 'm') pt <> ct);
  Alcotest.check_raises "wrong nonce length"
    (Invalid_argument "Block_mode.ctr_crypt: nonce")
    (fun () -> ignore (Block_mode.ctr_crypt c ~nonce:"short" pt))

let test_ctr_keystream_position_dependent () =
  (* the keystream is positional: the same plaintext block encrypts
     differently in block 0 and block 1, unlike ECB *)
  let c = aes_cipher () in
  let nonce = String.make 8 'n' in
  let ct = Block_mode.ctr_crypt c ~nonce (String.make 32 'a') in
  Alcotest.(check bool) "block 0 <> block 1" true
    (String.sub ct 0 16 <> String.sub ct 16 16)

let qcheck_ctr_involution =
  QCheck.Test.make ~name:"ctr: crypt . crypt = id, any length" ~count:100
    QCheck.(pair (string_of_size Gen.(return 8)) (string_of_size Gen.(0 -- 200)))
    (fun (nonce, pt) ->
      let c = aes_cipher () in
      Block_mode.ctr_crypt c ~nonce (Block_mode.ctr_crypt c ~nonce pt) = pt)

let qcheck_ctr_speck_involution =
  QCheck.Test.make ~name:"ctr(speck): crypt . crypt = id" ~count:100
    QCheck.(string_of_size Gen.(0 -- 100))
    (fun pt ->
      let c = speck_cipher () in
      let nonce = "" (* speck block is 8: nonce is block_size - 8 = 0 bytes *) in
      Block_mode.ctr_crypt c ~nonce (Block_mode.ctr_crypt c ~nonce pt) = pt)

let tests =
  [
    Alcotest.test_case "pkcs7" `Quick test_pkcs7;
    Alcotest.test_case "cbc-mac" `Quick test_cbc_mac_properties;
    QCheck_alcotest.to_alcotest qcheck_cbc_mac_msg_sensitivity;
    Alcotest.test_case "ctr basics" `Quick test_ctr_basics;
    Alcotest.test_case "ctr keystream positional" `Quick
      test_ctr_keystream_position_dependent;
    QCheck_alcotest.to_alcotest qcheck_ctr_involution;
    QCheck_alcotest.to_alcotest qcheck_ctr_speck_involution;
  ]
