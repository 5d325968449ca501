(** Exhaustive validation of the paper's protection argument.

    §5/§6.2 argue per-asset: the key must be read/write-protected, the
    counter write-protected, the clock state write-protected, and the
    whole rule table locked at boot. This module enumerates {e every}
    combination of those four defences on a SW-clock prover, runs the
    roaming adversary's tampers against each, and compares the observed
    outcome with the security argument's prediction:

    - with the EA-MPU left unlocked, {e nothing} holds (resident malware
      clears the rules first and then takes everything);
    - with lockdown, each asset is tamperable exactly when its own rule
      is missing.

    [exhaustive_check] is the machine-checked version of the paper's
    case analysis — all 16 points of the protection lattice. *)

type config = {
  p_key : bool;
  p_counter : bool;
  p_clock : bool; (* Clock_MSB + IDT + IRQ-control rules *)
  p_lock : bool; (* EA-MPU locked at end of secure boot *)
}

type exposure = {
  key_extractable : bool;
  counter_rollbackable : bool;
  clock_rollbackable : bool;
}

val all_configs : config list
(** The 16 combinations. *)

val predict : config -> exposure
(** What the paper's argument says must happen. *)

val exhaustive_check : unit -> (config * exposure * exposure * bool) list
(** For every config: (config, predicted, observed, agreement). *)

val pp_config : Format.formatter -> config -> unit
val pp_exposure : Format.formatter -> exposure -> unit
