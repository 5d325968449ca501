(** Request-authentication schemes (§4.1): the verifier proves to the
    prover that an attestation request is genuine, with symmetric MACs
    (HMAC-SHA1, AES-128 CBC-MAC, Speck 64/128 CBC-MAC) or a public-key
    signature (ECDSA over secp160r1 — the option §4.1 rules out as itself
    DoS-grade expensive, included for the cost comparison).

    Key blob layout on the prover ({!prover_key_blob}): 20 bytes of
    symmetric K_attest followed by the verifier's 40-byte public key
    (x||y, zero when unused); K_attest always exists because the
    attestation *response* is authenticated symmetrically. *)

type scheme = Ra_mcu.Timing.auth_scheme

type verifier_secret =
  | Vs_symmetric of string (* shared K_attest *)
  | Vs_ecdsa of Ra_crypto.Ecdsa.keypair

val k_attest_len : int (* 20 *)
val public_len : int (* 40 *)
val blob_len : int (* 60 *)

val prover_key_blob : sym_key:string -> public:Ra_crypto.Ec.point option -> string
(** @raise Invalid_argument if [sym_key] is not 20 bytes. *)

val blob_sym_key : string -> string
val blob_public : string -> Ra_crypto.Ec.point option
(** [None] if the public-key slot is all zeros or not a curve point. *)

val point_to_bytes : Ra_crypto.Ec.point -> string
val point_of_bytes : string -> Ra_crypto.Ec.point option

val keyed : string -> Ra_crypto.Hmac.key_ctx
(** Precomputed HMAC-SHA1 midstates for a long-lived K_attest
    ({!Ra_crypto.Hmac.key}). The HMAC-SHA1 scheme below MACs with them,
    which skips the per-message ipad/opad hashing — the "fixed" part of
    Table 1's SHA1-HMAC cost.

    The contexts come from a per-domain memo ({!Ra_crypto.Memo.per_domain},
    four entries) keyed by the key bytes, and are shared: the verifier
    and every prover handler of every world on a domain that uses the
    same key hold one context, and two keys used in turn each keep
    theirs. A prover handler calls this with the K_attest it has just
    read through the MPU, so a changed key blob selects its own context.
    It saves host time only: modelled cycles and MPU-mediated reads are
    unchanged. *)

val tag_request : scheme -> verifier_secret -> body:string -> Message.auth_tag
(** Compute the tag the verifier attaches.
    @raise Invalid_argument on a scheme/secret mismatch. *)

val verify_request :
  scheme -> key_blob:string -> body:string -> Message.auth_tag -> bool
(** The prover-side check, given the raw key blob read from protected
    storage. Wrong-scheme tags verify as [false]. *)

val response_report : sym_key:string -> body:string -> memory_image:string -> string
(** The attestation report: HMAC-SHA1 under K_attest over the response
    body and the measured memory. *)

val response_report_keyed :
  keyed:Ra_crypto.Hmac.key_ctx -> body:string -> memory_image:string -> string
(** {!response_report} against a precomputed key context; the memory image
    streams through the hash without being concatenated to the body. *)
