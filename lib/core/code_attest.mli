(** The trust anchor on the prover: the paper's [Code_attest].

    It is the only code allowed to read K_attest and the only code
    allowed to write counter_R — when the EA-MPU rules of §6.2 are in
    place. All its memory accesses run in the ["rom_attest"] execution
    context through {!Ra_mcu.Cpu}, so if an architecture forgets a rule
    (or malware disabled the MPU before lockdown), the consequences are
    real in the simulation too.

    Cycle/energy cost: handling a request charges the Table-1-calibrated
    cycle cost of the authentication check; an accepted request
    additionally charges the full memory-MAC sweep (§3.1, ≈754 ms for
    512 KB). Both are visible on the device's battery. *)

type stats = {
  requests_seen : int;
  requests_rejected : int;
  attestations_performed : int;
}

type t

val install :
  Ra_mcu.Device.t ->
  scheme:Ra_mcu.Timing.auth_scheme option ->
  policy:Freshness.policy ->
  ?precomputed_key_schedule:bool ->
  unit ->
  t
(** [scheme = None] models the unauthenticated baseline: every request —
    genuine or bogus — triggers a full attestation. *)

val freshness : t -> Freshness.state
val stats : t -> stats

val spans : t -> Ra_obs.Span.t
(** Span context clocked by the device CPU's elapsed seconds:
    [anchor.auth], [anchor.freshness] and [anchor.mac] spans time the
    phases of each {!handle_request} in simulated milliseconds. *)

val handle_request : t -> Message.attreq -> (Message.attresp, Verdict.t) result
(** Process one attestation request end to end: authenticate it (§4.1),
    check its freshness (§4.2), then run the memory-MAC sweep. Rejects
    with [Bad_auth], [Not_fresh] or — when the EA-MPU denies the anchor
    itself an access, a broken configuration — [Fault]. *)

val handle_channel_request :
  t -> Message.attreq -> (Message.attresp, Verdict.t) result
(** Like {!handle_request} for a request that arrived {e inside} an
    established secure session: authenticity and freshness are already
    established by the record layer (CMAC + anti-replay window), so the
    per-request auth-tag and monotone-counter checks are skipped — they
    would wrongly reject in-session requests the impairment layer
    reordered. The measured memory-MAC sweep, its cycle/energy charges
    and the protected execution context are unchanged. Rejects only
    with [Fault]. *)

val measure_memory : Ra_mcu.Device.t -> string
(** The raw attested-memory image as the anchor reads it, in a fresh
    string (for tests and for provisioning the verifier's reference
    image). A request's MAC covers the same bytes, read into one buffer
    per domain and hashed in place.
    @raise Ra_mcu.Cpu.Protection_fault if the EA-MPU denies
    [rom_attest] an attested range. *)

(** {2 The defence sequence}

    The steps every prover handler runs, in this order: enter the
    anchor's context ({!protected}), authenticate the request (§4.1,
    {!authenticate}), check its freshness (§4.2, a {!Freshness} state),
    and only then do the costly work. {!handle_request}, {!Isa_anchor},
    {!Service} and {!Clock_sync} call these; each keeps its own cycle
    charges, spans and metrics around them. *)

val key_blob : Ra_mcu.Device.t -> string
(** The K_attest blob ({!Auth.prover_key_blob} layout), read through
    the EA-MPU in the current execution context. *)

val authenticate :
  Ra_mcu.Device.t ->
  precomputed_key_schedule:bool ->
  Ra_mcu.Timing.auth_scheme option ->
  body:string ->
  Message.auth_tag ->
  (unit, Verdict.t) result
(** Charge the scheme's Table-1 verification cycles, then verify the
    tag over [body] against {!key_blob}: [Bad_auth] on a mismatch.
    [None], the unauthenticated baseline, accepts without charging or
    reading the key. *)

val protected :
  Ra_mcu.Device.t -> (unit -> ('a, Verdict.t) result) -> ('a, Verdict.t) result
(** Run a handler body in the [rom_attest] execution context. An EA-MPU
    denial of any of its accesses ends it as [Fault] at the denied
    address, never as an exception. *)
