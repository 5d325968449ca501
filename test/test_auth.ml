open Ra_core
module Timing = Ra_mcu.Timing
module C = Ra_crypto

let sym_key = String.init 20 (fun i -> Char.chr (i + 65))
let blob = Auth.prover_key_blob ~sym_key ~public:None
let body = Message.request_body ~challenge:"ch" ~freshness:(Message.F_counter 9L)

let symmetric_schemes =
  [ Timing.Auth_hmac_sha1; Timing.Auth_aes128_cbc_mac; Timing.Auth_speck64_cbc_mac ]

let test_symmetric_roundtrip () =
  List.iter
    (fun scheme ->
      let tag = Auth.tag_request scheme (Auth.Vs_symmetric sym_key) ~body in
      Alcotest.(check bool)
        (Format.asprintf "%a verifies" Timing.pp_auth_scheme scheme)
        true
        (Auth.verify_request scheme ~key_blob:blob ~body tag);
      Alcotest.(check bool) "rejects other body" false
        (Auth.verify_request scheme ~key_blob:blob ~body:(body ^ "x") tag))
    symmetric_schemes

let test_wrong_key_rejected () =
  let other = Auth.prover_key_blob ~sym_key:(String.make 20 'z') ~public:None in
  List.iter
    (fun scheme ->
      let tag = Auth.tag_request scheme (Auth.Vs_symmetric sym_key) ~body in
      Alcotest.(check bool) "wrong key" false
        (Auth.verify_request scheme ~key_blob:other ~body tag))
    symmetric_schemes

let test_scheme_confusion_rejected () =
  (* a valid HMAC tag presented to an AES-CBC-MAC prover must not pass *)
  let tag = Auth.tag_request Timing.Auth_hmac_sha1 (Auth.Vs_symmetric sym_key) ~body in
  Alcotest.(check bool) "cross-scheme" false
    (Auth.verify_request Timing.Auth_aes128_cbc_mac ~key_blob:blob ~body tag);
  Alcotest.(check bool) "missing tag" false
    (Auth.verify_request Timing.Auth_hmac_sha1 ~key_blob:blob ~body Message.Tag_none)

let test_ecdsa_roundtrip () =
  let kp = C.Ecdsa.generate_keypair C.Ec.secp160r1 ~seed:"vrf" in
  let blob = Auth.prover_key_blob ~sym_key ~public:(Some kp.C.Ecdsa.public) in
  let tag = Auth.tag_request Timing.Auth_ecdsa_verify (Auth.Vs_ecdsa kp) ~body in
  Alcotest.(check bool) "verifies" true
    (Auth.verify_request Timing.Auth_ecdsa_verify ~key_blob:blob ~body tag);
  Alcotest.(check bool) "rejects other body" false
    (Auth.verify_request Timing.Auth_ecdsa_verify ~key_blob:blob ~body:(body ^ "x") tag);
  (* prover without a provisioned public key rejects all signatures *)
  let no_pub = Auth.prover_key_blob ~sym_key ~public:None in
  Alcotest.(check bool) "no public key" false
    (Auth.verify_request Timing.Auth_ecdsa_verify ~key_blob:no_pub ~body tag)

let test_blob_layout () =
  Alcotest.(check int) "blob length" Auth.blob_len (String.length blob);
  Alcotest.(check string) "sym part" sym_key (Auth.blob_sym_key blob);
  Alcotest.(check bool) "empty pub slot" true (Auth.blob_public blob = None);
  Alcotest.check_raises "bad sym length"
    (Invalid_argument "Auth.prover_key_blob: sym_key must be 20 bytes") (fun () ->
      ignore (Auth.prover_key_blob ~sym_key:"short" ~public:None))

let test_point_encoding () =
  let kp = C.Ecdsa.generate_keypair C.Ec.secp160r1 ~seed:"p" in
  let bytes = Auth.point_to_bytes kp.C.Ecdsa.public in
  Alcotest.(check int) "40 bytes" Auth.public_len (String.length bytes);
  (match Auth.point_of_bytes bytes with
  | Some p -> Alcotest.(check bool) "roundtrip" true (C.Ec.equal C.Ec.secp160r1 p kp.C.Ecdsa.public)
  | None -> Alcotest.fail "decode failed");
  Alcotest.(check bool) "garbage rejected" true
    (Auth.point_of_bytes (String.make Auth.public_len '\x07') = None)

let test_response_report_binding () =
  let r1 = Auth.response_report ~sym_key ~body:"b" ~memory_image:"m" in
  Alcotest.(check bool) "body bound" true
    (r1 <> Auth.response_report ~sym_key ~body:"b'" ~memory_image:"m");
  Alcotest.(check bool) "memory bound" true
    (r1 <> Auth.response_report ~sym_key ~body:"b" ~memory_image:"m'");
  Alcotest.(check bool) "key bound" true
    (r1 <> Auth.response_report ~sym_key:(String.make 20 'q') ~body:"b" ~memory_image:"m")

let qcheck_tags_differ_across_bodies =
  QCheck.Test.make ~name:"auth: tag binds the body (speck)" ~count:100
    QCheck.(pair (string_of_size Gen.(0 -- 50)) (string_of_size Gen.(0 -- 50)))
    (fun (b1, b2) ->
      QCheck.assume (b1 <> b2);
      Auth.tag_request Timing.Auth_speck64_cbc_mac (Auth.Vs_symmetric sym_key) ~body:b1
      <> Auth.tag_request Timing.Auth_speck64_cbc_mac (Auth.Vs_symmetric sym_key) ~body:b2)

(* Key contexts come from a per-domain memo keyed by the key bytes: two
   keys used in turn each MAC under their own key, and each keeps one
   shared context instead of deriving it again on every use. *)
let test_keyed_alternating () =
  let ka = String.make 20 'a' and kb = String.make 20 'b' in
  for i = 1 to 4 do
    List.iter
      (fun k ->
        let msg = Printf.sprintf "message %d" i in
        Alcotest.(check string) "keyed MAC = Hmac.mac"
          (C.Hexutil.to_hex (C.Hmac.mac C.Hmac.sha1 ~key:k msg))
          (C.Hexutil.to_hex (C.Hmac.mac_with (Auth.keyed k) msg)))
      [ ka; kb ]
  done;
  Alcotest.(check bool) "each key's context is shared" true
    (Auth.keyed ka == Auth.keyed ka && Auth.keyed kb == Auth.keyed kb)

let tests =
  [
    Alcotest.test_case "symmetric roundtrip" `Quick test_symmetric_roundtrip;
    Alcotest.test_case "wrong key rejected" `Quick test_wrong_key_rejected;
    Alcotest.test_case "scheme confusion rejected" `Quick test_scheme_confusion_rejected;
    Alcotest.test_case "ecdsa roundtrip" `Quick test_ecdsa_roundtrip;
    Alcotest.test_case "blob layout" `Quick test_blob_layout;
    Alcotest.test_case "point encoding" `Quick test_point_encoding;
    Alcotest.test_case "response report binding" `Quick test_response_report_binding;
    QCheck_alcotest.to_alcotest qcheck_tags_differ_across_bodies;
    Alcotest.test_case "key contexts: two keys in turn" `Quick test_keyed_alternating;
  ]
