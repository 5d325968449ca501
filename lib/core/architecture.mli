(** Named prover configurations: which hardware the device has, which
    EA-MPU rules secure boot installs, and how the trust anchor is
    parameterized. These are the columns of the paper's security
    analysis:

    - {!unprotected}: attestation works, but no request authentication
      and no state protection at all — §3.1's DoS victim.
    - {!smart_like}: SMART's static protection — key in ROM behind a
      hard-wired rule, authenticated requests — but no counter/clock
      protection (SMART predates the prover-DoS analysis).
    - {!trustlite_base} (Fig. 1a): programmable EA-MPU set up by secure
      boot and locked; key + counter rules; a wide hardware clock.
    - {!trustlite_sw_clock} (Fig. 1b): same, with the SW-clock
      (Clock_LSB interrupt + Code_clock-maintained Clock_MSB) and the
      IDT/irq-control rules that protect it.
    - the TyTAN-like spec (in {!all_specs}): TrustLite-base plus an
      interruptible trust anchor (modeled by leaving interrupts enabled
      during attestation; the distinction matters for real-time
      co-existence, not security).

    [build] returns a *booted* prover; secure boot measures the
    application image before installing rules, so a tampered image
    refuses to boot. *)

type spec = {
  spec_name : string;
  clock_impl : Ra_mcu.Device.clock_impl;
  key_location : Ra_mcu.Device.key_location;
  scheme : Ra_mcu.Timing.auth_scheme option;
  policy : Freshness.policy;
  protect_key : bool;
  protect_counter : bool;
  protect_clock_msb : bool;
  protect_idt : bool;
  protect_irq_ctrl : bool;
  lock_mpu : bool;
  attest_app_flash : bool; (* measurement covers application flash too *)
}

type prover = {
  spec : spec;
  device : Ra_mcu.Device.t;
  anchor : Code_attest.t;
  boot_outcome : Ra_mcu.Secure_boot.outcome;
}

val default_window_ms : int64
(** Acceptance window for timestamp freshness (5000 ms). *)

val unprotected : spec
val smart_like : spec
val trustlite_base : spec
val trustlite_sw_clock : spec

val all_specs : spec list

val with_policy : spec -> Freshness.policy -> spec
val with_scheme : spec -> Ra_mcu.Timing.auth_scheme option -> spec
val with_name : spec -> string -> spec

val app_image : Ra_mcu.Secure_boot.image
(** The canonical benign application image installed in flash. *)

val build : ?ram_seed:int64 -> ?ram_size:int -> key_blob:string -> spec -> prover
(** Manufacture, provision and boot a prover. [ram_seed] fills the
    attested RAM deterministically (default seed 42), so the verifier's
    reference image can be reproduced with {!Code_attest.measure_memory}.
    @raise Invalid_argument if the spec is inconsistent (e.g. timestamp
    policy without a clock). *)

val reboot : ?ram_seed:int64 -> prover -> prover
(** Power-cycle the prover and run secure boot again on the surviving
    non-volatile contents: protection rules are re-installed and
    re-locked, RAM is re-initialized from [ram_seed] (default 42 — the
    device reloading its working state), and a fresh trust anchor is
    bound. The request counter carries over (it lives in NVM), the clock
    restarts from zero. *)
