(** The hardware cost model of Table 3: every protectable component costs
    some number of EA-MPU rules (which in turn cost registers and LUTs in
    the synthesized rule table) plus direct registers/LUTs of its own.

    Constants are the paper's published synthesis results for the Intel
    Siskiyou Peak core with TrustLite's EA-MPU; we do not re-synthesize
    RTL, we make the paper's own cost arithmetic executable. *)

type t = {
  component_name : string;
  mpu_rules : int; (* EA-MPU rule slots the component occupies *)
  direct_registers : int;
  direct_luts : int;
}

(** {2 Table 3 constants} *)

val siskiyou_peak : t
(** The bare core: 5528 registers, 14361 LUTs, no rules. *)

val ea_mpu_registers : rules:int -> int
(** [278 + 116 * rules]. *)

val ea_mpu_luts : rules:int -> int
(** [417 + 182 * rules]. *)

val mpu_lockdown : t
(** The EA-MPU's own lockdown rule (Table 3 column "EA-MPU": 1 rule). *)

val attest_key : t
(** 1 rule, no direct cost (same whether the key lives in ROM or RAM). *)

val request_counter : t
(** 1 rule, no direct cost. *)

val clock_64bit : t
(** 64 direct registers + 64 LUTs, no rule (the register is hardwired
    read-only). *)

val clock_32bit : t
(** 32 direct registers + 32 LUTs. *)

val sw_clock : t
(** 2 rules (IDT lockdown + Clock_MSB), no direct cost. *)

val clock_nbit : width:int -> t
(** Generalization used by the clock-width sweep bench. *)
