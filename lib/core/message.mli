(** Wire messages of the attestation protocol.

    A request [attreq] carries a challenge, an optional freshness field
    (§4.2: nonce, counter or timestamp) and an optional authentication
    tag (§4.1: MAC or signature over the request body). A response
    carries the prover's measurement report authenticated under
    K_attest. Serialization is a fixed, unambiguous tag-length-value
    concatenation so MACs have a well-defined byte string to cover. *)

type freshness_field =
  | F_none
  | F_nonce of string
  | F_counter of int64
  | F_timestamp of int64 (* verifier wall-clock, milliseconds *)

type auth_tag =
  | Tag_none
  | Tag_hmac_sha1 of string
  | Tag_aes_cbc_mac of string
  | Tag_speck_cbc_mac of string
  | Tag_ecdsa of string (* fixed-width r||s *)

type attreq = {
  challenge : string;
  freshness : freshness_field;
  tag : auth_tag;
}

type attresp = {
  echo_challenge : string;
  echo_freshness : freshness_field;
  report : string; (* HMAC-SHA1 over prover memory, keyed by K_attest *)
}

type wire =
  | Request of attreq
  | Response of attresp
  | Sync_request of { verifier_time_ms : int64; sync_counter : int64; sync_tag : string }
  | Sync_response of { acked_counter : int64; ack_tag : string }
  | Service_request of {
      command_name : string;
      payload : string;
      service_freshness : freshness_field;
      service_tag : auth_tag;
    }
  | Service_ack of { acked_command : string; ack_report : string }
  | Hs_init of { hs_nonce : string; hs_req : attreq }
      (** Secure-session handshake open: initiator nonce plus a regular
          authenticated attestation request — the session is refused
          unless the prover passes a fresh attestation. *)
  | Hs_resp of { hs_rnonce : string; hs_report : attresp; hs_bind : string }
      (** Responder nonce, the attestation report, and a MAC binding the
          report to the running handshake transcript hash. *)
  | Hs_fin of { fin_tag : string }
      (** Initiator's confirmation MAC over the full transcript hash. *)
  | Record of { rec_seq : int64; rec_ct : string; rec_tag : string }
      (** Encrypt-then-MAC session record: AES-CTR ciphertext under the
          per-direction channel key, CMAC tag over seq + ciphertext. *)

val request_body : challenge:string -> freshness:freshness_field -> string
(** The byte string an authentication tag covers. *)

val response_body : attresp -> string
(** The byte string the response report covers, minus the report itself
    (used when the report doubles as the authenticator). *)

val freshness_bytes : freshness_field -> string

val pp_wire : Format.formatter -> wire -> unit

val wire_to_bytes : wire -> string
(** Full binary serialization (what actually crosses the radio). *)

val wire_of_bytes : string -> wire option
(** Parse a received frame; [None] on anything malformed (truncated,
    bad tags, a length beyond the frame, trailing garbage). Total: never
    raises. Canonical: whenever [wire_of_bytes b = Some w],
    [wire_to_bytes w = b], so [String.length b] is the wire size of [w]. *)
