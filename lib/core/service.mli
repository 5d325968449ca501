(** Future-work item 3 of the paper: "generalize proposed techniques to
    other network protocols (beyond attestation) to mitigate DoS attacks
    on other security services on embedded devices".

    Any request/response service on the prover can be wrapped in the same
    envelope the attestation protocol uses — verifier authentication
    (§4.1) plus a freshness policy (§4.2) whose state lives in protected
    memory — so that bogus or replayed invocations are rejected before
    the expensive service body runs. Secure memory erasure and code
    update are the examples the paper's introduction names. *)

type command =
  | Secure_erase (* zero the attested RAM *)
  | Code_update of { image : string } (* install new application code *)
  | Ping (* cheap liveness check *)

type request = {
  command : command;
  freshness : Message.freshness_field;
  tag : Message.auth_tag;
}

type stats = {
  invocations : int; (* accepted and executed *)
  breakdown : (Verdict.reason * int) list;
      (** non-zero rejection counts in {!Verdict.Reason.all} order — the
          same [(reason * int)] shape (and Prometheus [reason] label set)
          the verifier-side [Server] exports *)
}

val rejections : stats -> int
(** Total across all rejection reasons. *)

val rejected : stats -> Verdict.reason -> int
(** Count for one reason (0 if absent from the breakdown). *)

type t

val rule_protect_service_state : Ra_mcu.Device.t -> Ra_mcu.Ea_mpu.rule

val install :
  Ra_mcu.Device.t ->
  scheme:Ra_mcu.Timing.auth_scheme option ->
  policy:Freshness.policy ->
  t

val stats : t -> stats

val spans : t -> Ra_obs.Span.t
(** The service's span context, clocked by the device CPU's elapsed
    seconds: [service.auth], [service.freshness] and [service.execute]
    spans cover each {!handle}. *)

val command_name : command -> string

val make_request :
  sym_key:string ->
  scheme:Ra_mcu.Timing.auth_scheme option ->
  freshness:Message.freshness_field ->
  command ->
  request
(** Verifier-side construction (symmetric schemes). *)

val handle : t -> request -> (Message.wire, Verdict.t) result
(** Authenticate, check freshness ({!Code_attest}'s defence sequence),
    then execute the command body with its modeled cycle cost (erase:
    one write per byte; update: one flash word program per 4 bytes; ping:
    bookkeeping only), and answer with the [Service_ack] frame: the
    command's name and an HMAC under K_attest over the command, the
    request's freshness field and the result ({!check_ack}). Rejects
    with [Bad_auth], [Not_fresh] or, when the
    EA-MPU denies the handler an access, [Fault]. A [Code_update] image
    longer than the app region is a [Fault] at the region's end, raised
    after authentication and before the freshness cell or the region is
    written. *)

val check_ack : sym_key:string -> request -> Message.wire -> bool
(** Verifier side: [true] iff the frame is a [Service_ack] for [request]'s
    command whose report is
    [HMAC-SHA1(sym_key, "ACK" ‖ name ‖ "|" ‖ freshness ‖ result)], with
    the request's freshness field and the result the command must have:
    ["pong"], ["erased"] or ["updated to <hex SHA-256 of the image>"]. *)

val request_to_wire : request -> Message.wire
(** Serialize for the channel (frame type [V]). *)

val request_of_wire : Message.wire -> request option
(** [None] for non-service frames or unknown command names. *)
