(** Future-work item 2 of the paper: "secure and reliable synchronization
    of verifier's and prover's clocks".

    The prover's hardware clock counts from power-on; to compare verifier
    timestamps against it, the prover keeps a signed-magnitude offset
    [wall_ms = clock_ms + offset] in protected non-volatile memory. The
    sync protocol is a one-round authenticated exchange:

    verifier → prover: [Sync_request (t_v, c, HMAC(K, t_v ‖ c))]
    prover  → verifier: [Sync_response (c, HMAC(K, c))]

    The sync counter [c] is strictly monotonic and stored in its own
    protected cell, so recorded sync requests cannot be replayed to drag
    the prover's clock back — otherwise clock synchronization would be
    exactly the rollback vector §5 warns about. *)

type reject =
  | Sync_bad_auth
  | Sync_stale_counter of { got : int64; stored : int64 }
  | Sync_no_clock

type t

val offset_offset : int (* byte offset of the clock-offset cell *)

val rule_protect_sync_state : Ra_mcu.Device.t -> Ra_mcu.Ea_mpu.rule
(** Both cells writable only by [Code_attest]. Install before lockdown. *)

val install : Ra_mcu.Device.t -> t
(** The prover-side endpoint; runs in the trust anchor's context and
    reads K_attest through the MPU. *)

val handle : t -> Message.wire -> (Message.wire, reject) result
(** Process a [Sync_request]; returns the acknowledgement.
    Non-sync messages are rejected as [Sync_bad_auth]. *)

val now_ms : t -> int64
(** Offset-corrected prover wall-clock (for use as a
    [Freshness.init ~now_ms_fn]). *)

val offset_ms : t -> int64

(** {2 Verifier side} *)

val make_sync_request :
  sym_key:string -> time:Ra_net.Simtime.t -> counter:int64 -> Message.wire

val check_sync_ack : sym_key:string -> counter:int64 -> Message.wire -> bool

val pp_reject : Format.formatter -> reject -> unit
