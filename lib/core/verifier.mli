(** The verifier: issues authenticated, fresh attestation requests and
    validates the prover's reports against a known-good reference image
    of the prover's memory.

    Construction goes through {!Config} + {!of_config}; verdicts come
    back as the unified {!Verdict.t} ({!check_response},
    {!check_reports}). *)

type freshness_kind = Fk_none | Fk_nonce | Fk_counter | Fk_timestamp

type t

(** How to build a verifier. A plain record (build one literally, or via
    {!Config.v}); {!of_config} validates it. [Server] accepts only this. *)
module Config : sig
  type t = {
    scheme : Ra_mcu.Timing.auth_scheme option;
        (** request-authentication scheme; [None] = unauthenticated *)
    freshness_kind : freshness_kind;
    sym_key : string;  (** 20-byte K_attest shared with the prover *)
    time : Ra_net.Simtime.t;
    reference_image : string;  (** known-good prover memory *)
  }

  val v :
    ?scheme:Ra_mcu.Timing.auth_scheme ->
    ?freshness_kind:freshness_kind ->
    ?reference_image:string ->
    sym_key:string ->
    time:Ra_net.Simtime.t ->
    unit ->
    t
  (** Record builder with the common defaults: no scheme, [Fk_nonce],
      empty reference image. *)
end

val of_config : Config.t -> (t, string) result
(** Validate and build. [Error] (not an exception) on a [sym_key] that is
    not exactly [Auth.k_attest_len] bytes. An [Auth_ecdsa_verify]
    verifier derives its keypair from the fixed seed ["verifier"]. *)

val prover_key_blob : t -> string
(** The blob to provision into the prover's protected key storage. *)

val scheme : t -> Ra_mcu.Timing.auth_scheme option

val next_counter_value : t -> int64
(** The counter the next request will carry (monotonically increasing). *)

val make_request : t -> Message.attreq
(** Build the next request: fresh challenge, freshness field per
    [freshness_kind] (counter incremented, timestamp = current simulated
    time), authenticated per [scheme]. *)

val make_session_request : t -> Message.attreq
(** Build a request for delivery {e inside} an established secure
    session: fresh challenge, but no freshness field and no auth tag —
    the record layer (CMAC + anti-replay window) supplies both, and the
    challenge echo binds each response to its round. *)

val session_nonce : t -> string
(** 16 fresh bytes from the verifier's DRBG — handshake nonces. *)

val check_response : t -> request:Message.attreq -> Message.attresp -> Verdict.t
(** The closed-loop check: echo fields must match [request]
    ([Invalid_response] otherwise), then the report MAC decides
    [Trusted] vs [Untrusted_state]. *)

val check_reports : t -> Message.attresp array -> Verdict.t array
(** Open-loop (server-side) batch check: report MAC only, no echo
    matching — the caller has already bound each response to a request
    (or accepts counter-based freshness instead), so it never returns
    [Invalid_response]. The HMAC key context (ipad/opad midstates) is
    derived once per verifier and shared across the batch, so
    per-report cost drops to the report MAC itself. *)

val set_reference_image : t -> string -> unit
(** Update the known-good state (e.g. after an authorized code update). *)
