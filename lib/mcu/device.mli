(** A complete simulated prover platform in the image of the paper's
    Figure 1: boot ROM, [Code_attest] and [Code_clock] in ROM, the
    attestation key in ROM or write-protected flash, application code in
    flash, 512 KB of attested RAM, an IDT, interrupt control registers,
    the request counter in non-volatile memory, and one of the paper's
    clock implementations — all behind one EA-MPU and one cycle/energy
    meter.

    The module only builds and wires the platform; the trust-anchor
    *logic* ([Code_attest]) lives in the [ra_core] library and talks to
    the device exclusively through MPU-mediated {!Cpu} accesses. *)

type clock_impl =
  | Clock_none (* counter-only or nonce-only provers *)
  | Clock_hw of { width : int; divider_log2 : int } (* Fig. 1a *)
  | Clock_sw of { lsb_width : int; divider_log2 : int } (* Fig. 1b *)

type key_location = Key_in_rom | Key_in_flash

type t

val create :
  ?ram_size:int ->
  ?clock_impl:clock_impl ->
  ?key_location:key_location ->
  ?energy:Energy.t ->
  ?rom_images:(string * string) list ->
  ?attest_app_flash:bool ->
  key:string ->
  unit ->
  t
(** Build and provision a device with an 8-rule EA-MPU. Defaults:
    512 KB RAM (the paper's Siskiyou Peak figure), [Clock_none],
    [Key_in_rom], fresh default battery. [rom_images] are
    (region name, code bytes) pairs mask-programmed into ROM regions —
    e.g. an interpreted [Code_attest] routine for {!region_attest}. The
    key and images are written during manufacture and the ROM sealed
    before the device is returned.
    @raise Invalid_argument if an image does not fit its region. *)

(** {2 Components} *)

val memory : t -> Memory.t
val cpu : t -> Cpu.t
val mpu : t -> Ea_mpu.t
val interrupt : t -> Interrupt.t
val energy : t -> Energy.t
val clock : t -> Clock.t option
val clock_impl : t -> clock_impl

(** {2 Well-known locations} *)

val key_addr : t -> int
val key_len : t -> int
val counter_addr : t -> int
(** 64-bit monotonic request counter in non-volatile memory. *)

val clock_msb_addr : t -> int
val idt_size : t -> int
val attested_base : t -> int
val attested_len : t -> int
(** Base/length of the attested RAM (the paper's 512 KB figure). *)

val attested_ranges : t -> (int * int) list
(** Every (base, length) range an attestation measurement covers: the
    RAM, plus the application flash when the device was created with
    [attest_app_flash] (§3.1 speaks of the prover's {e entire} writable
    memory — flash is writable too, and code updates land there). *)

val attested_total_len : t -> int

(** {2 Code identities (region names used as EA-MPU subjects)} *)

val region_attest : string
val region_clock : string
val region_app : string
val region_untrusted : string

(** {2 Canonical protection rules (§6.2)} *)

val rule_protect_key : t -> Ea_mpu.rule
(** K_attest readable only by [Code_attest], writable by nobody. *)

val rule_protect_counter : t -> Ea_mpu.rule
(** counter_R writable only by [Code_attest]. *)

val rule_protect_clock_msb : t -> Ea_mpu.rule
(** Clock_MSB writable only by [Code_clock]. *)

val rule_protect_idt : t -> Ea_mpu.rule
(** IDT location immutable to software. *)

val rule_protect_irq_ctrl : t -> Ea_mpu.rule
(** Timer-interrupt enable bit immutable to software. *)

val anchor_scratch_addr : t -> int
(** A small non-attested RAM region for the trust anchor's working
    memory (the interpreted SHA-1's block/state/schedule buffers) —
    outside the measured ranges so measurement does not perturb itself. *)

val actuator_addr : t -> int
(** A memory-mapped peripheral (§2: TrustLite's EA-MPU "can be used to
    control access to hardware components such as peripherals"). *)

val rule_protect_actuator : t -> Ea_mpu.rule
(** Actuator registers writable only by the application code region —
    compromised code elsewhere cannot drive the hardware. *)

(** {2 Convenience} *)

val timer_vector : int

val fill_ram_deterministic : t -> seed:int64 -> unit
(** Populate RAM with a reproducible pseudorandom image (the benign
    device state that attestation measures): the first [attested_len]
    bytes of the {!Ra_crypto.Prng} stream from [seed]. The image comes
    from a per-domain memo ({!Ra_crypto.Memo.per_domain}) keyed by
    (seed, RAM size) that holds one RAM image per domain, so the worlds
    of a fleet draw it once. *)

val pristine_ram : t -> seed:int64 -> string
(** The image {!fill_ram_deterministic} writes: the memo's own string,
    so a holder of it keeps no copy of its own. *)

val idle : t -> seconds:float -> unit
(** Let wall-clock time pass with the CPU asleep: clock ticks advance,
    sleep energy is charged. *)

val observe_gauges :
  ?registry:Ra_obs.Registry.t -> ?labels:Ra_obs.Registry.labels -> t -> unit
(** Snapshot the device's meters into gauges: [ra_device_cycles],
    [ra_device_work_cycles], [ra_device_energy_consumed_joules],
    [ra_device_energy_remaining_joules] and [ra_device_faults], all
    carrying [labels] (callers add e.g. [("device", name)]). *)

val power_cycle : t -> t
(** Reboot the device: a new platform with the same configuration and
    battery, whose {e non-volatile} contents (ROM, flash — thus the key,
    counter_R and the installed application) carry over, while RAM, the
    EA-MPU rule table and lock, the interrupt state and the clock are
    reset — clocks restart from zero, which is precisely why the paper's
    future-work item 2 (clock resynchronization) exists, and why the
    request counter must live in NVM (§4.2). Secure boot must run again
    on the new instance. *)
