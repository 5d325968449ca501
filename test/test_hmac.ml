(* HMAC against RFC 2202 (SHA-1) and RFC 4231 (SHA-256) vectors. *)
open Ra_crypto

let hex = Hexutil.to_hex
let check = Alcotest.(check string)

let test_rfc2202 () =
  check "tc1" "b617318655057264e28bc0b6fb378c8ef146be00"
    (hex (Hmac.mac Hmac.sha1 ~key:(String.make 20 '\x0b') "Hi There"));
  check "tc2" "effcdf6ae5eb2fa2d27416d5f184df9c259a7c79"
    (hex (Hmac.mac Hmac.sha1 ~key:"Jefe" "what do ya want for nothing?"));
  check "tc3" "125d7342b9ac11cd91a39af48aa17b4f63f175d3"
    (hex (Hmac.mac Hmac.sha1 ~key:(String.make 20 '\xaa') (String.make 50 '\xdd')));
  (* tc6: key longer than the block size forces the key-hash path *)
  check "tc6 long key" "aa4ae5e15272d00e95705637ce8a3b55ed402112"
    (hex
       (Hmac.mac Hmac.sha1 ~key:(String.make 80 '\xaa')
          "Test Using Larger Than Block-Size Key - Hash Key First"))

let test_rfc4231 () =
  check "tc1" "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"
    (hex (Hmac.mac Hmac.sha256 ~key:(String.make 20 '\x0b') "Hi There"));
  check "tc2" "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Hmac.mac Hmac.sha256 ~key:"Jefe" "what do ya want for nothing?"))

let test_verify () =
  let key = "k3y" and msg = "msg" in
  let tag = Hmac.mac Hmac.sha1 ~key msg in
  Alcotest.(check bool) "accepts" true (Hmac.verify Hmac.sha1 ~key ~msg ~tag);
  Alcotest.(check bool) "rejects msg change" false
    (Hmac.verify Hmac.sha1 ~key ~msg:"msG" ~tag);
  Alcotest.(check bool) "rejects key change" false
    (Hmac.verify Hmac.sha1 ~key:"k3y2" ~msg ~tag);
  Alcotest.(check bool) "rejects truncated tag" false
    (Hmac.verify Hmac.sha1 ~key ~msg ~tag:(String.sub tag 0 19))

let test_keyed_rfc_vectors () =
  (* the midstate path must reproduce the RFC vectors, including long keys *)
  let kc = Hmac.key Hmac.sha1 ~key:(String.make 20 '\x0b') in
  check "tc1 via key_ctx" "b617318655057264e28bc0b6fb378c8ef146be00"
    (hex (Hmac.mac_with kc "Hi There"));
  let kc_long = Hmac.key Hmac.sha1 ~key:(String.make 80 '\xaa') in
  check "tc6 long key via key_ctx" "aa4ae5e15272d00e95705637ce8a3b55ed402112"
    (hex
       (Hmac.mac_with kc_long
          "Test Using Larger Than Block-Size Key - Hash Key First"));
  let kc256 = Hmac.key Hmac.sha256 ~key:"Jefe" in
  check "rfc4231 tc2 via key_ctx"
    "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843"
    (hex (Hmac.mac_with kc256 "what do ya want for nothing?"))

let test_keyed_reuse () =
  (* a single key_ctx must stay valid across many messages (midstates are
     copied, never consumed) and match the one-shot path every time *)
  let key = "attestation-key" in
  let kc = Hmac.key Hmac.sha1 ~key in
  for i = 1 to 20 do
    let msg = Printf.sprintf "nonce-%04d" i in
    check msg (hex (Hmac.mac Hmac.sha1 ~key msg)) (hex (Hmac.mac_with kc msg))
  done

let test_verify_with () =
  let kc = Hmac.key Hmac.sha1 ~key:"k3y" in
  let tag = Hmac.mac_with kc "msg" in
  Alcotest.(check bool) "accepts" true (Hmac.verify_with kc ~msg:"msg" ~tag);
  Alcotest.(check bool) "rejects" false (Hmac.verify_with kc ~msg:"msG" ~tag)

(* both paths also equal the textbook HMACs in test/oracle/, which derive
   and concatenate the pads per message: the seed SHA-1's and the DRBG
   reference's over the tail-recursive SHA-256 *)
let qcheck_keyed_equiv =
  QCheck.Test.make ~name:"hmac: mac_with (key k) = mac ~key:k" ~count:200
    QCheck.(pair (string_of_size Gen.(0 -- 100)) (string_of_size Gen.(0 -- 200)))
    (fun (key, msg) ->
      let sha1 = Hmac.mac Hmac.sha1 ~key msg and sha256 = Hmac.mac Hmac.sha256 ~key msg in
      Hmac.mac_with (Hmac.key Hmac.sha1 ~key) msg = sha1
      && sha1 = Sha1_oracle.hmac ~key msg
      && Hmac.mac_with (Hmac.key Hmac.sha256 ~key) msg = sha256
      && sha256 = Drbg_oracle.hmac ~key msg)

let qcheck_mac_parts =
  QCheck.Test.make ~name:"hmac: mac_parts = mac of concatenation" ~count:200
    QCheck.(pair small_string (list_of_size Gen.(0 -- 5) small_string))
    (fun (key, parts) ->
      let kc = Hmac.key Hmac.sha1 ~key in
      Hmac.mac_parts kc parts = Hmac.mac Hmac.sha1 ~key (String.concat "" parts))

let qcheck_key_sensitivity =
  QCheck.Test.make ~name:"hmac: different keys give different tags" ~count:100
    QCheck.(triple (string_of_size Gen.(1 -- 40)) (string_of_size Gen.(1 -- 40)) small_string)
    (fun (k1, k2, msg) ->
      QCheck.assume (k1 <> k2);
      (* normalized equal keys (e.g. trailing NULs) are the only collision
         class we tolerate *)
      let pad k = if String.length k < 64 then k ^ String.make (64 - String.length k) '\x00' else k in
      QCheck.assume (pad k1 <> pad k2);
      Hmac.mac Hmac.sha1 ~key:k1 msg <> Hmac.mac Hmac.sha1 ~key:k2 msg)

let qcheck_deterministic =
  QCheck.Test.make ~name:"hmac is deterministic" ~count:100
    QCheck.(pair small_string small_string)
    (fun (key, msg) -> Hmac.mac Hmac.sha1 ~key msg = Hmac.mac Hmac.sha1 ~key msg)

let tests =
  [
    Alcotest.test_case "RFC 2202 vectors" `Quick test_rfc2202;
    Alcotest.test_case "RFC 4231 vectors" `Quick test_rfc4231;
    Alcotest.test_case "verify" `Quick test_verify;
    Alcotest.test_case "keyed midstates: RFC vectors" `Quick test_keyed_rfc_vectors;
    Alcotest.test_case "keyed midstates: reuse" `Quick test_keyed_reuse;
    Alcotest.test_case "verify_with" `Quick test_verify_with;
    QCheck_alcotest.to_alcotest qcheck_keyed_equiv;
    QCheck_alcotest.to_alcotest qcheck_mac_parts;
    QCheck_alcotest.to_alcotest qcheck_key_sensitivity;
    QCheck_alcotest.to_alcotest qcheck_deterministic;
  ]
