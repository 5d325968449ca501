(** The paper's two adversaries (§3.2).

    {b External adversary} [Adv_ext]: full Dolev-Yao control of the
    channel — eavesdrop, drop, delay, reorder, replay, inject — but no
    access to the prover's internals. Implemented as operations over the
    {!Ra_net.Channel} transcript.

    {b Roaming adversary} [Adv_roam]: additionally compromises the
    prover's *software* (never its hardware), manipulates internal state,
    then erases its traces (Phase II) before replaying recorded requests
    (Phase III). Every manipulation is attempted as a real, MPU-mediated
    memory access from the ["untrusted"] execution context, so whether a
    tamper "works" is decided by the architecture under test, not by this
    module. *)

(** {2 Adv_ext} *)

val recorded_requests : Session.t -> Message.attreq list
(** Phase-I style eavesdropping: every request ever put on the wire. *)

val forge_request :
  Session.t -> ?key_blob:string -> freshness:Message.freshness_field -> unit ->
  Message.attreq
(** Build a bogus request. Without [key_blob] the tag is absent (pure
    verifier impersonation); with a stolen blob the forgery carries a
    valid MAC under the prover's own scheme. *)

val inject : Session.t -> Message.attreq -> unit
(** Deliver a request of the adversary's choosing to the prover now. It
    counts as replayed if it is one of {!recorded_requests}, and as
    injected otherwise. *)

val replay : Session.t -> Message.attreq -> unit
(** Re-deliver a previously recorded request verbatim; counts as
    replayed. *)

val intercept_next_request : Session.t -> Message.attreq option
(** Remove the oldest undelivered verifier request from the wire (the
    prover never sees it) and hand it to the adversary. *)

val flood : Session.t -> count:int -> Message.attreq -> unit
(** Deliver [count] copies back-to-back (the DoS of §3.1); each counts
    as injected. *)

(** {2 Adv_roam} *)

type tamper =
  | Try_key_read
  | Try_key_write of string
  | Try_counter_write of int64 (* §5: roll counter_R back *)
  | Try_clock_set_back_ms of int64 (* §5: set the clock to t - δ *)
  | Try_idt_tamper (* §6.2: stop Code_clock being invoked *)
  | Try_irq_disable
  | Try_mpu_reconfig (* remove all protection rules *)

type tamper_result =
  | Tamper_succeeded of string (* detail, e.g. extracted key hex *)
  | Blocked_by_mpu
  | Blocked_rom_immutable
  | Blocked_mpu_locked
  | Not_applicable of string

type compromise_report = {
  attempts : (tamper * tamper_result) list;
  malware_was_resident : bool; (* RAM was modified during the visit *)
  traces_erased : bool; (* RAM restored bit-exact before leaving *)
}

val compromise : Session.t -> tampers:tamper list -> compromise_report
(** Phase II: infect the prover (drop a malware marker into attested
    RAM), attempt each tamper as untrusted code, then erase the marker
    and restore RAM bit-exact. After this returns, attestation of memory
    contents can no longer see that the adversary was there — only
    protected-state side effects (or their absence) remain. *)

val stolen_key_blob : compromise_report -> string option
(** The key material exfiltrated by [Try_key_read], if it succeeded. *)

val tamper_result_ok : tamper_result -> bool

val pp_tamper : Format.formatter -> tamper -> unit
val pp_tamper_result : Format.formatter -> tamper_result -> unit
