(** Future-work item 2 of the paper: "secure and reliable synchronization
    of verifier's and prover's clocks".

    The prover's hardware clock counts from power-on; to compare verifier
    timestamps against it, the prover keeps a signed-magnitude offset
    [wall_ms = clock_ms + offset] in non-volatile memory. The
    sync protocol is a one-round authenticated exchange:

    verifier → prover: [Sync_request (t_v, c, HMAC(K, t_v ‖ c))]
    prover  → verifier: [Sync_response (c, HMAC(K, c))]

    The handler runs {!Code_attest}'s defence sequence: the tag is
    checked like any HMAC-SHA1 request tag, and [c] like an attestation
    counter — a {!Freshness.Counter} state (RFC 1982 serial arithmetic)
    on its own NVRAM cell, so recorded sync requests cannot be replayed
    to drag the prover's clock back, and a cell parked at all-ones does
    not stop every later sync. Both cells are protected only where
    {!rule_protect_sync_state} is programmed before lockdown; no
    [Session] world programs it (see {!Session.create}), so there app
    code can rewrite them. *)

type t

val offset_offset : int (* byte offset of the clock-offset cell *)

val rule_protect_sync_state : Ra_mcu.Device.t -> Ra_mcu.Ea_mpu.rule
(** Both cells writable only by [Code_attest]. Install before lockdown. *)

val install : Ra_mcu.Device.t -> t
(** The prover-side endpoint; runs in the trust anchor's context and
    reads K_attest through the MPU.
    @raise Invalid_argument on a device without a clock, as
    {!Freshness.init} does for a timestamp policy. *)

val handle : t -> Message.wire -> (Message.wire, Verdict.t) result
(** Process a [Sync_request]; returns the acknowledgement. Rejects with
    [Bad_auth] (also for non-sync messages), [Not_fresh] for a counter
    that is not ahead of the stored one, or [Fault] when the EA-MPU
    denies the handler an access. *)

val now_ms : t -> int64
(** Offset-corrected prover wall-clock (for use as a
    [Freshness.init ~now_ms_fn]). *)

val offset_ms : t -> int64

(** {2 Verifier side} *)

val make_sync_request :
  sym_key:string -> time:Ra_net.Simtime.t -> counter:int64 -> Message.wire

val check_sync_ack : sym_key:string -> counter:int64 -> Message.wire -> bool
