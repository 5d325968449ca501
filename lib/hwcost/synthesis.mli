(** Synthesis of a set of {!Component}s into total register/LUT counts
    and the §6.3 overhead comparison.

    A system is the Siskiyou Peak core + an EA-MPU sized to the summed
    rule demand + the components' direct logic. The paper's baseline is
    core + EA-MPU with two rules (its own lockdown rule and the
    attestation key's rule): 6038 registers / 15142 LUTs. *)

type totals = {
  rule_slots : int;
  registers : int;
  luts : int;
}

val synthesize : Component.t list -> totals
(** Core and EA-MPU base are implicit; pass only the protection
    components (lockdown, key, counter, clock, …). *)

val baseline : totals
(** 6038 registers, 15142 LUTs, 2 rules. *)

type overhead = {
  upgrade_name : string;
  added_rules : int;
  added_registers : int;
  added_luts : int;
  register_pct : float; (* vs baseline registers *)
  lut_pct : float;
}

val overhead : name:string -> Component.t list -> overhead
(** Cost of adding components on top of the baseline (Lockdown +
    Attest-Key); the percentages are relative to the baseline totals,
    matching §6.3. *)

val upgrade_64bit_clock : overhead
(** Counter rule + 64-bit clock: +180 reg (2.98 %), +246 LUT (1.62 %). *)

val upgrade_32bit_clock : overhead
(** Counter rule + 32-bit clock: +148 reg (2.45 %), +214 LUT (1.41 %). *)

val upgrade_sw_clock : overhead
(** Counter rule + SW-clock's two rules: +348 reg (5.76 %), +546 LUT
    (3.61 %). *)

val pp_totals : Format.formatter -> totals -> unit
val pp_overhead : Format.formatter -> overhead -> unit
