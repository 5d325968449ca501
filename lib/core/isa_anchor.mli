(** A trust anchor whose attestation report is computed by the
    {e interpreted} SHA-1 routine ({!Ra_isa.Sha1_asm}) residing in the
    [rom_attest] region: the measurement sweep reads every attested byte
    through the EA-MPU with the PC inside [Code_attest]'s region, and
    the resulting HMAC is bit-identical to the host-crypto anchor's — so
    the standard {!Verifier} accepts it unchanged.

    Differences from {!Code_attest}:
    - the memory-MAC cost is not charged from the Table-1 model; it is
      whatever the interpreted routine actually executes (reported by
      {!last_mac_cycles} — a few× the real core's cost, same order);
    - the device must be created with the SHA-1 routine as a
      [rom_images] entry for {!Ra_mcu.Device.region_attest} and a free
      RAM scratch area (see {!install}).

    This is the closest this repository gets to SMART's actual shape: a
    ROM routine, a key readable only by that ROM's PC range, and a MAC
    computed instruction by instruction. *)

type t

val rom_image : unit -> string
(** The SHA-1 routine's code bytes, to pass as
    [(Ra_mcu.Device.region_attest, rom_image ())] in [rom_images].
    The routine is position-assembled for the standard device map. *)

val install :
  Ra_mcu.Device.t ->
  scheme:Ra_mcu.Timing.auth_scheme option ->
  policy:Freshness.policy ->
  t
(** Bind the anchor to a device whose [rom_attest] holds {!rom_image}.
    @raise Invalid_argument if the ROM content does not match (the
    routine would execute garbage). *)

val handle_request : t -> Message.attreq -> (Message.attresp, Verdict.t) result
(** {!Code_attest}'s defence sequence ({!Code_attest.protected},
    {!Code_attest.authenticate}, then freshness), with the checks and
    rejects of {!Code_attest.handle_request}; the report is computed by
    interpreted code. A trap of that code (an EA-MPU rule that keeps
    [rom_attest] out of attested memory, say) fails closed: the outcome
    is [Fault], and the routine's scratch, which may hold the key's HMAC
    pads, is zeroed first. *)

val last_mac_cycles : t -> int64
(** Cycles the most recent interpreted measurement consumed. *)

val sha : t -> Ra_isa.Sha1_asm.t
(** The interpreted routine — e.g. to attach a {!Ra_isa.Sampler} for
    PC-sampled flame graphs of the measurement sweep. *)
