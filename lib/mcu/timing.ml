let siskiyou_hz = 24_000_000

let cycles_of_ms ?(hz = siskiyou_hz) ms =
  Int64.of_float (Float.round (ms *. float_of_int hz /. 1000.0))

let ms_of_cycles ?(hz = siskiyou_hz) cycles =
  Int64.to_float cycles *. 1000.0 /. float_of_int hz

let hmac_sha1_fixed_ms = 0.340
let hmac_sha1_per_block_ms = 0.092
let aes128_key_expansion_ms = 0.074
let aes128_encrypt_block_ms = 0.288
let aes128_decrypt_block_ms = 0.570
let speck64_key_expansion_ms = 0.016
let speck64_encrypt_block_ms = 0.017
let speck64_decrypt_block_ms = 0.015
let ecdsa_sign_ms = 183.464
let ecdsa_verify_ms = 170.907

let blocks_of ~block_size len = (len + block_size - 1) / block_size

let hmac_sha1_cycles ~bytes_len =
  let blocks = blocks_of ~block_size:64 bytes_len in
  Int64.add
    (cycles_of_ms hmac_sha1_fixed_ms)
    (Int64.mul (Int64.of_int blocks) (cycles_of_ms hmac_sha1_per_block_ms))

let block_cipher_cycles ~key_exp_ms ~per_block_ms ~block_size ~include_key_expansion
    ~bytes_len =
  let blocks = blocks_of ~block_size bytes_len in
  let base = if include_key_expansion then cycles_of_ms key_exp_ms else 0L in
  Int64.add base (Int64.mul (Int64.of_int blocks) (cycles_of_ms per_block_ms))

let aes128_cbc_cycles ?(include_key_expansion = true) ~bytes_len ~direction () =
  let per_block_ms =
    match direction with
    | `Encrypt -> aes128_encrypt_block_ms
    | `Decrypt -> aes128_decrypt_block_ms
  in
  block_cipher_cycles ~key_exp_ms:aes128_key_expansion_ms ~per_block_ms ~block_size:16
    ~include_key_expansion ~bytes_len

let speck64_cbc_cycles ?(include_key_expansion = true) ~bytes_len ~direction () =
  let per_block_ms =
    match direction with
    | `Encrypt -> speck64_encrypt_block_ms
    | `Decrypt -> speck64_decrypt_block_ms
  in
  block_cipher_cycles ~key_exp_ms:speck64_key_expansion_ms ~per_block_ms ~block_size:8
    ~include_key_expansion ~bytes_len

let ecdsa_verify_cycles = cycles_of_ms ecdsa_verify_ms

let memory_mac_cycles ~bytes_len = hmac_sha1_cycles ~bytes_len
let memory_mac_ms ~bytes_len = ms_of_cycles (memory_mac_cycles ~bytes_len)

type auth_scheme =
  | Auth_hmac_sha1
  | Auth_aes128_cbc_mac
  | Auth_speck64_cbc_mac
  | Auth_ecdsa_verify

let auth_scheme_message_bits = function
  | Auth_hmac_sha1 -> 512
  | Auth_aes128_cbc_mac -> 256
  | Auth_speck64_cbc_mac -> 64
  | Auth_ecdsa_verify -> 160

let request_auth_cycles ?(precomputed_key_schedule = false) scheme =
  let include_key_expansion = not precomputed_key_schedule in
  let bytes_len = auth_scheme_message_bits scheme / 8 in
  match scheme with
  | Auth_hmac_sha1 -> hmac_sha1_cycles ~bytes_len
  | Auth_aes128_cbc_mac ->
    aes128_cbc_cycles ~include_key_expansion ~bytes_len ~direction:`Encrypt ()
  | Auth_speck64_cbc_mac ->
    speck64_cbc_cycles ~include_key_expansion ~bytes_len ~direction:`Encrypt ()
  | Auth_ecdsa_verify -> ecdsa_verify_cycles

let request_auth_ms ?precomputed_key_schedule scheme =
  ms_of_cycles (request_auth_cycles ?precomputed_key_schedule scheme)

let pp_auth_scheme fmt = function
  | Auth_hmac_sha1 -> Format.pp_print_string fmt "SHA1-HMAC"
  | Auth_aes128_cbc_mac -> Format.pp_print_string fmt "AES-128 CBC-MAC"
  | Auth_speck64_cbc_mac -> Format.pp_print_string fmt "Speck 64/128 CBC-MAC"
  | Auth_ecdsa_verify -> Format.pp_print_string fmt "ECDSA secp160r1"
