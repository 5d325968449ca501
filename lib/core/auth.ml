module C = Ra_crypto
module Timing = Ra_mcu.Timing

type scheme = Timing.auth_scheme

type verifier_secret =
  | Vs_symmetric of string
  | Vs_ecdsa of C.Ecdsa.keypair

let k_attest_len = 20
let coord_len = 20
let public_len = 2 * coord_len
let blob_len = k_attest_len + public_len

let point_to_bytes point =
  match C.Ec.to_affine C.Ec.secp160r1 point with
  | None -> invalid_arg "Auth.point_to_bytes: point at infinity"
  | Some (x, y) ->
    C.Bignum.to_bytes_be ~pad:coord_len x ^ C.Bignum.to_bytes_be ~pad:coord_len y

let point_of_bytes s =
  if String.length s <> public_len then None
  else begin
    let x = C.Bignum.of_bytes_be (String.sub s 0 coord_len) in
    let y = C.Bignum.of_bytes_be (String.sub s coord_len coord_len) in
    if C.Ec.on_curve C.Ec.secp160r1 (x, y) then
      Some (C.Ec.of_affine C.Ec.secp160r1 (x, y))
    else None
  end

let prover_key_blob ~sym_key ~public =
  if String.length sym_key <> k_attest_len then
    invalid_arg "Auth.prover_key_blob: sym_key must be 20 bytes";
  let pub_bytes =
    match public with
    | None -> String.make public_len '\x00'
    | Some point -> point_to_bytes point
  in
  sym_key ^ pub_bytes

let blob_sym_key blob = String.sub blob 0 k_attest_len
let blob_public blob = point_of_bytes (String.sub blob k_attest_len public_len)

let sym_of_secret = function
  | Vs_symmetric k -> k
  | Vs_ecdsa _ -> invalid_arg "Auth.tag_request: symmetric scheme needs Vs_symmetric"

(* Block-cipher keys are derived from the 20-byte K_attest by truncation
   to the cipher's key size (16 bytes). *)
let cipher_key k = String.sub k 0 16

(* Key contexts are immutable, so every world on a domain that uses the
   same K_attest shares one. *)
let keyed =
  C.Memo.per_domain ~capacity:4 ~equal:String.equal (fun sym_key ->
      C.Hmac.key C.Hmac.sha1 ~key:sym_key)

let tag_request scheme secret ~body =
  match scheme with
  | Timing.Auth_hmac_sha1 ->
    Message.Tag_hmac_sha1 (C.Hmac.mac_with (keyed (sym_of_secret secret)) body)
  | Timing.Auth_aes128_cbc_mac ->
    let key = C.Aes.expand (cipher_key (sym_of_secret secret)) in
    Message.Tag_aes_cbc_mac (C.Block_mode.cbc_mac (C.Block_mode.aes key) body)
  | Timing.Auth_speck64_cbc_mac ->
    let key = C.Speck.expand (cipher_key (sym_of_secret secret)) in
    Message.Tag_speck_cbc_mac (C.Block_mode.cbc_mac (C.Block_mode.speck key) body)
  | Timing.Auth_ecdsa_verify ->
    (match secret with
    | Vs_ecdsa kp ->
      let signature = C.Ecdsa.sign C.Ec.secp160r1 ~secret:kp.C.Ecdsa.secret body in
      Message.Tag_ecdsa (C.Ecdsa.signature_to_bytes C.Ec.secp160r1 signature)
    | Vs_symmetric _ -> invalid_arg "Auth.tag_request: ECDSA scheme needs Vs_ecdsa")

let scheme_label = function
  | Timing.Auth_hmac_sha1 -> "hmac_sha1"
  | Timing.Auth_aes128_cbc_mac -> "aes128_cbc_mac"
  | Timing.Auth_speck64_cbc_mac -> "speck64_cbc_mac"
  | Timing.Auth_ecdsa_verify -> "ecdsa_verify"

(* Per-verification cost on the hot path is one atomic add: the 4x2
   scheme/result counter handles are created once here. *)
let verification_counters =
  let counter scheme result =
    Ra_obs.Registry.Counter.get
      ~labels:[ ("scheme", scheme_label scheme); ("result", result) ]
      "ra_auth_verifications_total"
  in
  List.map
    (fun scheme -> (scheme, (counter scheme "ok", counter scheme "fail")))
    [
      Timing.Auth_hmac_sha1;
      Timing.Auth_aes128_cbc_mac;
      Timing.Auth_speck64_cbc_mac;
      Timing.Auth_ecdsa_verify;
    ]

let count_verification scheme ok =
  let ok_c, fail_c = List.assoc scheme verification_counters in
  Ra_obs.Registry.Counter.inc (if ok then ok_c else fail_c)

let verify_request_raw scheme ~key_blob ~body tag =
  match (scheme, tag) with
  | Timing.Auth_hmac_sha1, Message.Tag_hmac_sha1 t ->
    C.Hmac.verify_with (keyed (blob_sym_key key_blob)) ~msg:body ~tag:t
  | Timing.Auth_aes128_cbc_mac, Message.Tag_aes_cbc_mac t ->
    let key = C.Aes.expand (cipher_key (blob_sym_key key_blob)) in
    C.Block_mode.cbc_mac_verify (C.Block_mode.aes key) ~msg:body ~tag:t
  | Timing.Auth_speck64_cbc_mac, Message.Tag_speck_cbc_mac t ->
    let key = C.Speck.expand (cipher_key (blob_sym_key key_blob)) in
    C.Block_mode.cbc_mac_verify (C.Block_mode.speck key) ~msg:body ~tag:t
  | Timing.Auth_ecdsa_verify, Message.Tag_ecdsa t ->
    (match (blob_public key_blob, C.Ecdsa.signature_of_bytes C.Ec.secp160r1 t) with
    | Some public, Some signature ->
      C.Ecdsa.verify C.Ec.secp160r1 ~public ~msg:body signature
    | None, _ | _, None -> false)
  | ( ( Timing.Auth_hmac_sha1 | Timing.Auth_aes128_cbc_mac | Timing.Auth_speck64_cbc_mac
      | Timing.Auth_ecdsa_verify ),
      ( Message.Tag_none | Message.Tag_hmac_sha1 _ | Message.Tag_aes_cbc_mac _
      | Message.Tag_speck_cbc_mac _ | Message.Tag_ecdsa _ ) ) ->
    false

let verify_request scheme ~key_blob ~body tag =
  let ok = verify_request_raw scheme ~key_blob ~body tag in
  count_verification scheme ok;
  ok

let response_report_keyed ~keyed ~body ~memory_image =
  (* stream the two parts through the inner hash instead of materializing
     [body ^ memory_image] — the image is the prover's whole writable RAM *)
  C.Hmac.mac_parts keyed [ body; memory_image ]

let response_report ~sym_key ~body ~memory_image =
  response_report_keyed ~keyed:(keyed sym_key) ~body ~memory_image
