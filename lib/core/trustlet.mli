(** TrustLite-style {e trustlets} (paper §2): isolated code chunks whose
    private data "can be accessed only by the code of the trustlet to
    which the data belongs", enforced by EA-MPU rules, with declared
    entry points so other code can only call a trustlet at its gateway.

    [Code_attest] itself is the paper's primary trustlet; this module
    generalizes the pattern so a device can host several mutually
    isolated services (the attestation anchor, a key-store, a metering
    service, ...) on one EA-MPU. Registration is meant to run during
    secure boot, before the rule table is locked. *)

type spec = {
  trustlet_name : string;
  code_region : string; (* region whose PC owns the data *)
  data_base : int;
  data_size : int;
  entry_points : int list; (* gateway addresses inside the code region *)
  shared_read : bool; (* if true, anyone may read the data (e.g. a
                         published counter); writes stay exclusive *)
}

type t
(** A trustlet registry bound to one device. *)

val create : Ra_mcu.Device.t -> t

val register : t -> spec -> unit
(** Validate the spec and program its isolation rule into the device's
    EA-MPU.
    @raise Invalid_argument on an unknown code region, a data range that
    overlaps another trustlet's, or a duplicate name.
    @raise Ra_mcu.Ea_mpu.Locked / Capacity_exceeded from rule
    programming. *)

val registered : t -> spec list

val bind_core : t -> Ra_isa.Core.t -> unit
(** Install every trustlet's entry points as the core's allowed entries
    (§6.2 entry-point limiting) — call per interpreted core. *)

val lockdown : t -> unit
(** Freeze the EA-MPU (end of secure boot). *)
