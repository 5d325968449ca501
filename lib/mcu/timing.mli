(** Cycle-cost model of cryptographic primitives on the modeled prover,
    calibrated to Table 1 of the paper (Intel Siskiyou Peak at 24 MHz).

    All Table 1 entries are milliseconds; we store them as cycle counts at
    24 MHz so the simulated device does its own arithmetic, and [ms_*]
    accessors recover the paper's numbers exactly. The §3.1 memory-MAC
    formula and the §4.1 request-authentication comparison are derived
    functions, not constants. *)

val siskiyou_hz : int
(** 24 MHz. *)

val cycles_of_ms : ?hz:int -> float -> int64
val ms_of_cycles : ?hz:int -> int64 -> float

(** {2 Table 1 constants (ms on the 24 MHz prover)} *)

val hmac_sha1_fixed_ms : float (* 0.340 *)
val hmac_sha1_per_block_ms : float (* 0.092, per 64-byte block *)
val aes128_key_expansion_ms : float (* 0.074 *)
val aes128_encrypt_block_ms : float (* 0.288, per 16-byte block *)
val aes128_decrypt_block_ms : float (* 0.570 *)
val speck64_key_expansion_ms : float (* 0.016 *)
val speck64_encrypt_block_ms : float (* 0.017, per 8-byte block *)
val speck64_decrypt_block_ms : float (* 0.015 *)
val ecdsa_sign_ms : float (* 183.464 *)
val ecdsa_verify_ms : float (* 170.907 *)

(** {2 Derived costs, in cycles at 24 MHz} *)

val hmac_sha1_cycles : bytes_len:int -> int64
(** Fixed cost + one block cost per started 64-byte block. *)

val memory_mac_cycles : bytes_len:int -> int64
(** §3.1: SHA1-HMAC over the prover's writable memory. For the paper's
    512 KB this is ≈ 754 ms at 24 MHz. *)

val memory_mac_ms : bytes_len:int -> float

(** {2 §4.1 request-authentication comparison} *)

type auth_scheme =
  | Auth_hmac_sha1
  | Auth_aes128_cbc_mac
  | Auth_speck64_cbc_mac
  | Auth_ecdsa_verify

val auth_scheme_message_bits : auth_scheme -> int
(** The paper's one-block message assumption: HMAC 512, AES 256 (two
    128-bit blocks, as printed), Speck 64, ECC 160. *)

val request_auth_cycles : ?precomputed_key_schedule:bool -> auth_scheme -> int64
(** Cost for the prover to authenticate one attestation request. *)

val request_auth_ms : ?precomputed_key_schedule:bool -> auth_scheme -> float

val pp_auth_scheme : Format.formatter -> auth_scheme -> unit
