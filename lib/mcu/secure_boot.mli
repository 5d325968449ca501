(** Secure boot (§6.2 "Secure Boot"): at reset, immutable boot code
    measures the software image, compares it with a reference digest
    provisioned in ROM, and only then runs the initialization that
    programs the EA-MPU protection rules and locks the table. If the
    adversary modified the image (e.g. to skip rule programming), boot is
    refused; if the rules were programmed but the table not locked, any
    later compromised software can simply reprogram them — which is the
    gap secure boot closes. *)

type image = { image_name : string; code : string }

type config = {
  reference_digest : string; (* SHA-256 of the trusted image *)
  protection_rules : Ea_mpu.rule list;
  lock_mpu : bool;
  enable_interrupts : bool;
}

type outcome =
  | Booted
  | Rejected_bad_image of { expected : string; measured : string }

val digest_image : image -> string
(** SHA-256 measurement of the image contents.

    This and {!measure_region} hash through one per-domain memo
    ({!Ra_crypto.Memo.per_domain}, four entries) keyed by the exact
    bytes hashed and compared in full, so a world that installs the
    same image as an earlier one takes its digest from the memo. A hit
    needs bytes equal to an earlier input, so it returns the true digest
    of the bytes measured: a tampered image differs from the benign one
    in at least one byte, cannot hit the benign entry, and measures as
    what it is. *)

val install_image : Memory.t -> region:string -> image -> unit
(** Load the image into the given region (raw write; this is the external
    programmer / the adversary writing flash while the device is off).
    @raise Invalid_argument if the image exceeds the region. *)

val measure_region : Memory.t -> region:string -> image_len:int -> string
(** What the boot ROM actually hashes: the first [image_len] bytes of the
    region. *)

val boot :
  Cpu.t -> Interrupt.t option -> config -> region:string -> image_len:int -> outcome
(** Run the boot sequence in the "rom_boot" execution context. *)
